/** @file Tests for frame sources and arrival schedules. */

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "stream/frame_source.hh"

namespace redeye {
namespace stream {
namespace {

data::Dataset
smallDataset()
{
    Rng rng(0x5eed);
    return data::generateShapes(2, data::ShapesParams{}, rng);
}

TEST(ShapesReplaySourceTest, FrameMatchesDatasetExample)
{
    auto dataset = smallDataset();
    const std::size_t n = dataset.size();
    const Tensor images = dataset.images; // keep a reference copy
    const auto labels = dataset.labels;

    ShapesReplaySource source(std::move(dataset));
    ASSERT_EQ(source.size(), n);

    StreamFrame f = source.frame(3);
    EXPECT_EQ(f.index, 3u);
    EXPECT_EQ(f.label, labels[3]);
    ASSERT_EQ(f.image.shape(), images.slice(3).shape());
    const Tensor expected = images.slice(3);
    for (std::size_t i = 0; i < f.image.size(); ++i)
        ASSERT_EQ(f.image[i], expected[i]);
}

TEST(ShapesReplaySourceTest, ReplayWrapsModuloSize)
{
    ShapesReplaySource source(smallDataset());
    const std::size_t n = source.size();

    StreamFrame a = source.frame(1);
    StreamFrame b = source.frame(1 + n);
    EXPECT_EQ(b.index, 1 + n); // index is the stream position...
    EXPECT_EQ(a.label, b.label); // ...but content replays
    ASSERT_EQ(a.image.size(), b.image.size());
    for (std::size_t i = 0; i < a.image.size(); ++i)
        ASSERT_EQ(a.image[i], b.image[i]);
}

TEST(ShapesReplaySourceTest, SameIndexSameContent)
{
    ShapesReplaySource source(smallDataset());
    StreamFrame a = source.frame(7);
    StreamFrame b = source.frame(7);
    for (std::size_t i = 0; i < a.image.size(); ++i)
        ASSERT_EQ(a.image[i], b.image[i]);
}

TEST(ArrivalScheduleTest, UnpacedHasZeroGaps)
{
    const auto s = ArrivalSchedule::unpaced();
    EXPECT_EQ(s.kind, ArrivalKind::Unpaced);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(s.interarrivalS(i), 0.0);
}

TEST(ArrivalScheduleTest, FixedGapsAreOneOverRate)
{
    const auto s = ArrivalSchedule::fixed(20.0);
    EXPECT_EQ(s.kind, ArrivalKind::Fixed);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(s.interarrivalS(i), 0.05);
}

TEST(ArrivalScheduleTest, PoissonGapsAreDeterministicPerIndex)
{
    const auto a = ArrivalSchedule::poisson(30.0);
    const auto b = ArrivalSchedule::poisson(30.0);
    for (std::uint64_t i = 0; i < 32; ++i) {
        const double gap = a.interarrivalS(i);
        EXPECT_GT(gap, 0.0);
        EXPECT_DOUBLE_EQ(gap, b.interarrivalS(i));
    }
}

TEST(ArrivalScheduleTest, PoissonSeedChangesGaps)
{
    const auto a = ArrivalSchedule::poisson(30.0, 1);
    const auto b = ArrivalSchedule::poisson(30.0, 2);
    bool any_differ = false;
    for (std::uint64_t i = 0; i < 16; ++i)
        any_differ |= a.interarrivalS(i) != b.interarrivalS(i);
    EXPECT_TRUE(any_differ);
}

TEST(ArrivalScheduleTest, PoissonMeanGapApproachesOneOverRate)
{
    const double rate = 50.0;
    const auto s = ArrivalSchedule::poisson(rate);
    double sum = 0.0;
    const std::uint64_t n = 20000;
    for (std::uint64_t i = 0; i < n; ++i)
        sum += s.interarrivalS(i);
    const double mean = sum / static_cast<double>(n);
    EXPECT_NEAR(mean, 1.0 / rate, 0.05 / rate); // within 5%
}

TEST(ArrivalScheduleTest, PoissonGapsAreExponential)
{
    // Exponential inter-arrivals: the coefficient of variation
    // (stddev / mean) of the gaps must be ~1, which separates a real
    // Poisson process from, e.g., jittered-fixed arrivals (cv << 1).
    const double rate = 50.0;
    const auto s = ArrivalSchedule::poisson(rate);
    const std::uint64_t n = 20000;
    std::vector<double> gaps(n);
    double sum = 0.0, sum_sq = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const double gap = s.interarrivalS(i);
        gaps[i] = gap;
        sum += gap;
        sum_sq += gap * gap;
    }
    const double mean = sum / static_cast<double>(n);
    const double var =
        sum_sq / static_cast<double>(n) - mean * mean;
    const double cv = std::sqrt(var) / mean;
    EXPECT_NEAR(cv, 1.0, 0.05);

    // The quantiles pin the shape, not only its first two moments:
    // the p-quantile of Exp(rate) is -ln(1 - p) / rate, and a sample
    // quantile's standard error is sqrt(p (1 - p) / n) / f(x_p), with
    // density f(x_p) = rate (1 - p). Allow four standard errors.
    std::sort(gaps.begin(), gaps.end());
    const auto within = [&](double p) {
        const double se = std::sqrt(p * (1.0 - p) / static_cast<double>(n)) /
                          (rate * (1.0 - p));
        const double got = gaps[static_cast<std::size_t>(p * n)];
        EXPECT_NEAR(got, -std::log1p(-p) / rate, 4.0 * se) << "p = " << p;
    };
    within(0.5); // median ln 2 / rate
    within(0.9); // 90th percentile ln 10 / rate
}

TEST(ArrivalScheduleTest, PoissonSameSeedSameRealization)
{
    // Determinism across schedule instances of the same seed: the
    // mean-rate property above is reproducible run to run.
    const auto a = ArrivalSchedule::poisson(50.0, 0xabc);
    const auto b = ArrivalSchedule::poisson(50.0, 0xabc);
    for (std::uint64_t i = 0; i < 1000; ++i)
        ASSERT_DOUBLE_EQ(a.interarrivalS(i), b.interarrivalS(i));
}

TEST(ArrivalScheduleTest, RejectsNonFiniteAndNonPositiveRates)
{
    // NaN passes a `rate <= 0` test: a NaN Poisson rate would give
    // NaN gaps, and an infinite fixed rate an unpaced stream.
    for (double rate : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(), 0.0,
                        -1.0}) {
        EXPECT_EXIT((void)ArrivalSchedule::fixed(rate),
                    ::testing::ExitedWithCode(1),
                    "fixed arrival rate must be finite and positive")
            << rate;
        EXPECT_EXIT((void)ArrivalSchedule::poisson(rate),
                    ::testing::ExitedWithCode(1),
                    "Poisson arrival rate must be finite and positive")
            << rate;
    }
}

TEST(ArrivalKindNameTest, Names)
{
    EXPECT_STREQ(arrivalKindName(ArrivalKind::Unpaced), "unpaced");
    EXPECT_STREQ(arrivalKindName(ArrivalKind::Fixed), "fixed");
    EXPECT_STREQ(arrivalKindName(ArrivalKind::Poisson), "poisson");
}

} // namespace
} // namespace stream
} // namespace redeye
