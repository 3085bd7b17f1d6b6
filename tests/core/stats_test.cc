/** @file Tests for statistics accumulators and SNR measurement. */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/stats.hh"

namespace redeye {
namespace {

TEST(RunningStatTest, EmptyDefaults)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.meanSquare(), 0.0);
}

TEST(RunningStatTest, SingleSample)
{
    RunningStat s;
    s.add(4.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 4.0);
    EXPECT_EQ(s.min(), 4.0);
    EXPECT_EQ(s.max(), 4.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, KnownMoments)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.variance(), 1.25); // population variance
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.meanSquare(), (1 + 4 + 9 + 16) / 4.0);
}

TEST(RunningStatTest, NegativeValuesTrackMin)
{
    RunningStat s;
    s.add(-5.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStatTest, AddRange)
{
    std::vector<float> v{1.0f, 3.0f};
    RunningStat s;
    s.addRange(v.begin(), v.end());
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(RunningStatTest, ResetClears)
{
    RunningStat s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(PercentileTest, OrderStatistics)
{
    // Unsorted on purpose: percentile() sorts internally.
    std::vector<double> v{40.0, 10.0, 30.0, 20.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0); // midpoint
}

TEST(PercentileTest, LinearInterpolation)
{
    std::vector<double> v{0.0, 10.0};
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 75.0), 7.5);
}

TEST(PercentileTest, SingleSample)
{
    std::vector<double> v{3.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 3.0);
}

TEST(PercentileTest, TailPercentilesOnUniformRamp)
{
    // 0..99: p-th percentile of the ramp is 0.99 * p.
    std::vector<double> v(100);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i);
    EXPECT_NEAR(percentile(v, 50.0), 49.5, 1e-12);
    EXPECT_NEAR(percentile(v, 95.0), 94.05, 1e-12);
    EXPECT_NEAR(percentile(v, 99.0), 98.01, 1e-12);
}

TEST(PercentileTest, RejectsEmptyAndBadP)
{
    EXPECT_EXIT(percentile({}, 50.0), ::testing::ExitedWithCode(1),
                "empty");
    EXPECT_EXIT(percentile({1.0}, -1.0),
                ::testing::ExitedWithCode(1), "percentile");
    EXPECT_EXIT(percentile({1.0}, 101.0),
                ::testing::ExitedWithCode(1), "percentile");
}

TEST(MeasureSnrTest, IdenticalVectorsInfinite)
{
    std::vector<float> v{1.0f, 2.0f, 3.0f};
    EXPECT_TRUE(std::isinf(measureSnrDb(v, v)));
}

TEST(MeasureSnrTest, KnownRatio)
{
    // Signal power 1, noise power 0.01 -> 20 dB.
    std::vector<float> clean(1000, 1.0f);
    std::vector<float> noisy(1000);
    for (std::size_t i = 0; i < noisy.size(); ++i)
        noisy[i] = 1.0f + (i % 2 == 0 ? 0.1f : -0.1f);
    EXPECT_NEAR(measureSnrDb(clean, noisy), 20.0, 1e-4);
}

TEST(MeasureSnrTest, ZeroSignalNegativeInfinity)
{
    std::vector<float> clean(10, 0.0f);
    std::vector<float> noisy(10, 1.0f);
    EXPECT_TRUE(std::isinf(measureSnrDb(clean, noisy)));
    EXPECT_LT(measureSnrDb(clean, noisy), 0.0);
}

TEST(MeasureSnrTest, SizeMismatchPanics)
{
    std::vector<float> a(3), b(4);
    EXPECT_DEATH(measureSnrDb(a, b), "differ in size");
}

} // namespace
} // namespace redeye
