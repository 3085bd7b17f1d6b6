/** @file Tests for the deterministic random stream. */

#include <cmath>

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

} // namespace
} // namespace redeye
