/** @file Tests for the deterministic random stream. */

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "core/stats.hh"

namespace redeye {
namespace {

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.raw(), b.raw());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differs = false;
    for (int i = 0; i < 10 && !differs; ++i)
        differs = a.raw() != b.raw();
    EXPECT_TRUE(differs);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption)
{
    Rng a(99);
    Rng child = a.fork();
    const auto c0 = child.raw();
    Rng b(99);
    Rng child2 = b.fork();
    EXPECT_EQ(c0, child2.raw());
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformRangeRespected)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, -1.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, -1.0);
    }
}

TEST(RngTest, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsMatch)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.gaussian(2.0, 3.0));
    EXPECT_NEAR(stat.mean(), 2.0, 0.1);
    EXPECT_NEAR(stat.stddev(), 3.0, 0.1);
}

TEST(RngTest, ZeroSigmaGaussianIsTheMeanAndKeepsTheStreamAligned)
{
    // Noise models set a sigma of 0 to turn a source off; the draw
    // must still be legal and consume what a unit draw consumes.
    Rng zero(7);
    Rng unit(7);
    EXPECT_EQ(zero.gaussian(0.25, 0.0), 0.25);
    (void)unit.gaussian();
    EXPECT_EQ(zero.raw(), unit.raw());
}

TEST(RngTest, PoissonMeanMatches)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(static_cast<double>(rng.poisson(6.5)));
    EXPECT_NEAR(stat.mean(), 6.5, 0.15);
    // Poisson variance equals its mean.
    EXPECT_NEAR(stat.variance(), 6.5, 0.3);
}

TEST(RngTest, PoissonOfZeroMeanIsZero)
{
    Rng rng(17);
    EXPECT_EQ(rng.poisson(0.0), 0);
    EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(RngTest, BernoulliProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, KeyedGaussianIsStandardNormal)
{
    RunningStat stat;
    std::size_t beyond_3sigma = 0;
    for (std::uint64_t i = 0; i < 200000; ++i) {
        const double z = keyedGaussian(0x5eed, i);
        stat.add(z);
        beyond_3sigma += std::abs(z) > 3.0;
    }
    EXPECT_NEAR(stat.mean(), 0.0, 0.01);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.01);
    // P(|z| > 3) = 0.0027 for a normal variate.
    EXPECT_NEAR(beyond_3sigma / 200000.0, 0.0027, 0.0006);
}

TEST(RngTest, KeyedGaussianIsAPureFunctionOfItsKey)
{
    EXPECT_EQ(keyedGaussian(1, 42), keyedGaussian(1, 42));
    EXPECT_NE(keyedGaussian(1, 42), keyedGaussian(2, 42));
    EXPECT_NE(keyedGaussian(1, 42), keyedGaussian(1, 43));
    // Draws under one key are uncorrelated with their neighbours.
    double lag1 = 0.0;
    for (std::uint64_t i = 0; i < 100000; ++i)
        lag1 += keyedGaussian(7, i) * keyedGaussian(7, i + 1);
    EXPECT_NEAR(lag1 / 100000.0, 0.0, 0.015);
}

TEST(RngTest, StreamRngIsSeededByStreamKey)
{
    Rng stream = streamRng(3, 5, 7);
    Rng keyed(streamKey(3, 5, 7));
    EXPECT_EQ(stream.raw(), keyed.raw());
    EXPECT_NE(streamKey(3, 5, 7), streamKey(3, 5, 8));
    EXPECT_NE(streamKey(3, 5, 7), streamKey(3, 6, 7));
}

TEST(RngTest, StreamUniformStaysInsideTheUnitIntervalWithUniformMoments)
{
    // Mean 1/2 and variance 1/12; each tolerance is about four
    // standard errors at this sample count.
    constexpr std::uint64_t kDraws = 200000;
    RunningStat stat;
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        const double u = streamUniform(0x5eed, 3, i);
        ASSERT_GT(u, 0.0) << i;
        ASSERT_LT(u, 1.0) << i;
        stat.add(u);
    }
    EXPECT_NEAR(stat.mean(), 0.5, 0.003);
    EXPECT_NEAR(stat.variance(), 1.0 / 12.0, 0.0007);
}

TEST(RngTest, StreamDrawsArePinned)
{
    // The fleet's per-request draws (arrival gaps, service jitter,
    // failure, backoff and proxy noise) are these two functions: a
    // change to either moves every fleet result. Both Gaussians lie
    // in AS241's central range, which is all explicit fmas, so the
    // values are exact on any conforming platform.
    EXPECT_EQ(streamGaussian(1, 2, 3), -0x1.64d459fe78699p-5);
    EXPECT_EQ(streamUniform(1, 2, 3), 0x1.ee3619a1b8312p-2);
    EXPECT_EQ(streamGaussian(0xf1ee7, 0x09057, 41), 0x1.19e4275141dd3p+0);
    EXPECT_EQ(streamUniform(0xf1ee7, 0x09057, 41), 0x1.baaa70e92d40bp-1);
}

TEST(RngTest, StreamDrawsUnderDistinctPassesAreUncorrelated)
{
    // The fleet keys each decision kind by its own pass over the same
    // (seed, item) pairs. Each sum is of unit-variance products, so
    // its mean has standard error 1/sqrt(n) = 0.0032.
    constexpr std::uint64_t kDraws = 100000;
    const double unit = std::sqrt(12.0);
    double gg = 0.0, uu = 0.0, gu = 0.0;
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        const double g = streamGaussian(0x9e37, 1, i);
        gg += g * streamGaussian(0x9e37, 2, i);
        uu += unit * (streamUniform(0x9e37, 1, i) - 0.5) * unit *
              (streamUniform(0x9e37, 3, i) - 0.5);
        gu += g * unit * (streamUniform(0x9e37, 4, i) - 0.5);
    }
    EXPECT_NEAR(gg / kDraws, 0.0, 0.015);
    EXPECT_NEAR(uu / kDraws, 0.0, 0.015);
    EXPECT_NEAR(gu / kDraws, 0.0, 0.015);
}

TEST(RngTest, InverseNormalCdfHitsKnownQuantiles)
{
    EXPECT_NEAR(inverseNormalCdf(0.975), 1.959963984540054, 1e-12);
    EXPECT_NEAR(inverseNormalCdf(1e-10), -6.361340902404056, 1e-12);
    // One point in each of AS241's other two ranges.
    EXPECT_NEAR(inverseNormalCdf(0.6), 0.2533471031357998, 1e-12);
    EXPECT_NEAR(inverseNormalCdf(1e-20), -9.262340089798408, 1e-12);
    EXPECT_EQ(inverseNormalCdf(0.5), 0.0);
}

TEST(RngTest, InverseNormalCdfIsMonotone)
{
    // A fine grid on (0, 1), plus log-spaced tails down to 2^-53
    // that cross the range boundaries at |z| = 1.44 and 6.7.
    std::vector<double> ps;
    for (int i = 1; i < 1000000; ++i)
        ps.push_back(i * 1e-6);
    for (double p = 0x1p-53; p < 1e-6; p *= 1.001) {
        ps.push_back(p);
        ps.push_back(1.0 - p);
    }
    std::sort(ps.begin(), ps.end());
    double prev = -std::numeric_limits<double>::infinity();
    for (double p : ps) {
        const double z = inverseNormalCdf(p);
        ASSERT_GE(z, prev) << "at p = " << p;
        prev = z;
    }
}

TEST(RngTest, GaussianFromBitsExtremesAreFiniteAndOpposite)
{
    const double lo = gaussianFromBits(0);
    const double hi = gaussianFromBits(~std::uint64_t{0});
    EXPECT_TRUE(std::isfinite(lo));
    EXPECT_TRUE(std::isfinite(hi));
    EXPECT_EQ(lo, -hi);
    EXPECT_NEAR(hi, 8.2095361516013869, 1e-12);
    EXPECT_LE(hi, kKeyedGaussianMaxAbs);
    // The map reads only the top 52 bits, and is odd in them.
    EXPECT_EQ(gaussianFromBits(0xfff), lo);
    EXPECT_EQ(openUnitFromBits(0), 0x1p-53);
    EXPECT_EQ(openUnitFromBits(~std::uint64_t{0}), 1.0 - 0x1p-53);
    for (std::uint64_t h : {0x0123456789abcdefULL, 0x8000000000000000ULL,
                            0x7fffffffffffffffULL})
        EXPECT_EQ(gaussianFromBits(~h), -gaussianFromBits(h));
}

TEST(RngTest, KeyedGaussianIsTheMapOfItsEvenHash)
{
    // The comparator reads a tie's uniform and coin from
    // keyedBits(key, 2j) because keyedGaussian(key, j) is built from
    // that hash and no other; keyedUniform(key, j) is the uniform it
    // maps.
    for (std::uint64_t c = 0; c < 1000; ++c) {
        EXPECT_EQ(keyedGaussian(0xabc, c),
                  gaussianFromBits(keyedBits(0xabc, 2 * c)));
        EXPECT_EQ(keyedUniform(0xabc, c),
                  openUnitFromBits(keyedBits(0xabc, 2 * c)));
        EXPECT_EQ(keyedGaussian(0xabc, c),
                  inverseNormalCdf(keyedUniform(0xabc, c)));
    }
}

/** Chi-square critical value at significance 1e-3 (Wilson-Hilferty). */
double
chiSquareCritical(std::size_t dof)
{
    const double k = static_cast<double>(dof);
    const double t = 2.0 / (9.0 * k);
    return k * std::pow(1.0 - t + 3.0902 * std::sqrt(t), 3.0);
}

/** Pearson's statistic of @p counts against expected masses @p mass. */
double
chiSquare(const std::vector<double> &counts,
          const std::vector<double> &mass, double n)
{
    double chi2 = 0.0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        const double want = mass[b] * n;
        chi2 += (counts[b] - want) * (counts[b] - want) / want;
    }
    return chi2;
}

TEST(RngTest, KeyedGaussianPassesChiSquareIntoTheTails)
{
    // Edges every 0.25 sigma out to 3.5 sigma: the outer 14 bins on
    // each side lie in AS241's tail range (|z| > 1.44).
    std::vector<double> edges;
    for (int e = -14; e <= 14; ++e)
        edges.push_back(0.25 * e);
    const auto phi = [](double z) {
        return 0.5 * std::erfc(-z / std::sqrt(2.0));
    };
    std::vector<double> mass(edges.size() + 1);
    mass.front() = phi(edges.front());
    for (std::size_t b = 1; b < edges.size(); ++b)
        mass[b] = phi(edges[b]) - phi(edges[b - 1]);
    mass.back() = 1.0 - phi(edges.back());

    constexpr std::uint64_t kDraws = 1000000;
    std::vector<double> counts(mass.size(), 0.0);
    for (std::uint64_t i = 0; i < kDraws; ++i) {
        const double z = keyedGaussian(0xc41, i);
        counts[std::upper_bound(edges.begin(), edges.end(), z) -
               edges.begin()] += 1.0;
    }
    EXPECT_LT(chiSquare(counts, mass, kDraws),
              chiSquareCritical(mass.size() - 1));
}

/**
 * Bins of the Poisson(@p mean) pmf holding at least 1/200 of the mass
 * each, the tails folded into the end bins; returns their masses and
 * each count's bin.
 */
std::vector<double>
poissonBins(double mean, std::vector<std::size_t> &bin_of,
            std::size_t kmax)
{
    std::vector<double> mass(1, 0.0);
    bin_of.assign(kmax + 1, 0);
    for (std::size_t k = 0; k <= kmax; ++k) {
        if (mass.back() >= 0.005)
            mass.push_back(0.0);
        mass.back() += std::exp(static_cast<double>(k) * std::log(mean) -
                                mean - std::lgamma(k + 1.0));
        bin_of[k] = mass.size() - 1;
    }
    // Fold a light last bin into its neighbour, then the mass above
    // kmax into the last bin.
    if (mass.size() > 1 && mass.back() < 0.005) {
        mass[mass.size() - 2] += mass.back();
        mass.pop_back();
        for (std::size_t &b : bin_of)
            b = std::min(b, mass.size() - 1);
    }
    double total = 0.0;
    for (double m : mass)
        total += m;
    mass.back() += 1.0 - total;
    return mass;
}

TEST(RngTest, KeyedPoissonPassesChiSquareAgainstThePmf)
{
    // Both sides of the switch from inversion to PTRS at 10, and the
    // sensor's range of means.
    constexpr std::uint64_t kDraws = 200000;
    for (double mean : {0.5, 3.0, 9.99, 10.0, 37.5, 1000.0, 4000.0}) {
        const std::size_t kmax =
            static_cast<std::size_t>(mean + 12.0 * std::sqrt(mean) + 20);
        std::vector<std::size_t> bin_of;
        const std::vector<double> mass = poissonBins(mean, bin_of, kmax);
        std::vector<double> counts(mass.size(), 0.0);
        for (std::uint64_t i = 0; i < kDraws; ++i) {
            const std::int64_t k = keyedPoisson(0x5e45, i, mean);
            ASSERT_GE(k, 0);
            counts[bin_of[std::min(static_cast<std::size_t>(k), kmax)]] +=
                1.0;
        }
        EXPECT_LT(chiSquare(counts, mass, kDraws),
                  chiSquareCritical(mass.size() - 1))
            << "mean " << mean << ", " << mass.size() << " bins";
    }
}

TEST(RngTest, KeyedPoissonIsAPureFunctionOfKeyCounterAndMean)
{
    EXPECT_EQ(keyedPoisson(1, 2, 0.0), 0);
    EXPECT_EQ(keyedPoisson(1, 2, -3.0), 0);
    for (double mean : {0.5, 9.99, 10.0, 4000.0}) {
        EXPECT_EQ(keyedPoisson(1, 2, mean), keyedPoisson(1, 2, mean));
        bool key_matters = false, counter_matters = false;
        for (std::uint64_t c = 0; c < 64; ++c) {
            key_matters |= keyedPoisson(1, c, mean) !=
                           keyedPoisson(2, c, mean);
            counter_matters |= keyedPoisson(1, c, mean) !=
                               keyedPoisson(1, c + 1, mean);
        }
        EXPECT_TRUE(key_matters) << mean;
        EXPECT_TRUE(counter_matters) << mean;
    }
}

} // namespace
} // namespace redeye
