/** @file Tests for the dense Tensor. */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "tensor/tensor.hh"

namespace redeye {
namespace {

/** absMax as a sequential scan: std::max skips a NaN |x|. */
float
scannedAbsMax(const Tensor &t)
{
    float m = 0.0f;
    for (float x : t.vec())
        m = std::max(m, std::fabs(x));
    return m;
}

/** Same float, bit for bit. */
bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A length-@p n tensor of Gaussian values. */
Tensor
gaussianOf(std::size_t n, std::uint64_t seed)
{
    Tensor t(Shape(1, 1, 1, n));
    Rng rng(seed);
    t.fillGaussian(rng, 0.0f, 1.0f);
    return t;
}

TEST(TensorTest, ZeroInitialized)
{
    Tensor t(Shape(1, 2, 3, 3));
    EXPECT_EQ(t.size(), 18u);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FillConstant)
{
    Tensor t(Shape(1, 1, 2, 2), 3.5f);
    EXPECT_EQ(t[0], 3.5f);
    EXPECT_EQ(t[3], 3.5f);
    t.fill(-1.0f);
    EXPECT_EQ(t[2], -1.0f);
}

TEST(TensorTest, ExplicitDataSizeChecked)
{
    EXPECT_DEATH(Tensor(Shape(1, 1, 2, 2), std::vector<float>(3)),
                 "data size");
}

TEST(TensorTest, AtMatchesLinearIndexing)
{
    Tensor t(Shape(2, 2, 2, 2));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(i);
    EXPECT_EQ(t.at(1, 1, 1, 1), 15.0f);
    EXPECT_EQ(t.at(0, 1, 0, 1), 5.0f);
}

TEST(TensorTest, CheckedAtPanicsOutOfBounds)
{
    Tensor t(Shape(1, 1, 2, 2));
    EXPECT_DEATH(t.checkedAt(0, 0, 2, 0), "out of bounds");
}

TEST(TensorTest, ReshapePreservesData)
{
    Tensor t(Shape(1, 2, 2, 2));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(i);
    Tensor r = t.reshaped(Shape(1, 8, 1, 1));
    EXPECT_EQ(r.shape(), Shape(1, 8, 1, 1));
    EXPECT_EQ(r[5], 5.0f);
}

TEST(TensorTest, ReshapeRejectsSizeChange)
{
    Tensor t(Shape(1, 2, 2, 2));
    EXPECT_DEATH(t.reshaped(Shape(1, 3, 1, 1)), "element count");
}

TEST(TensorTest, SliceExtractsBatchItem)
{
    Tensor t(Shape(3, 1, 2, 2));
    for (std::size_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(i);
    Tensor s = t.slice(1);
    EXPECT_EQ(s.shape(), Shape(1, 1, 2, 2));
    EXPECT_EQ(s[0], 4.0f);
    EXPECT_EQ(s[3], 7.0f);
}

TEST(TensorTest, SliceOutOfRangePanics)
{
    Tensor t(Shape(2, 1, 1, 1));
    EXPECT_DEATH(t.slice(2), "out of range");
}

TEST(TensorTest, SumMeanAbsMax)
{
    Tensor t(Shape(1, 1, 1, 4));
    t[0] = 1.0f;
    t[1] = -5.0f;
    t[2] = 2.0f;
    t[3] = 2.0f;
    EXPECT_DOUBLE_EQ(t.sum(), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
    EXPECT_EQ(t.absMax(), 5.0f);
}

TEST(TensorTest, AbsMaxOfEmptyIsZero)
{
    EXPECT_TRUE(sameBits(Tensor().absMax(), 0.0f));
}

/**
 * Lane tails and whole vectors: the peak, wherever it sits (first,
 * last, in the tail), is found exactly as a sequential scan finds it.
 */
TEST(TensorTest, AbsMaxMatchesScanAtEveryLength)
{
    for (std::size_t n : {1u, 15u, 16u, 17u, 33u, 32768u}) {
        Tensor t = gaussianOf(n, n);
        EXPECT_TRUE(sameBits(t.absMax(), scannedAbsMax(t))) << n;
        for (std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
            Tensor peaked = t;
            peaked[at] = -100.0f;
            EXPECT_EQ(peaked.absMax(), 100.0f) << n << " at " << at;
        }
    }
}

TEST(TensorTest, AbsMaxOfSignedZerosAndInfinities)
{
    for (std::size_t n : {1u, 17u, 33u}) {
        Tensor zeros(Shape(1, 1, 1, n));
        for (std::size_t i = 0; i < n; ++i)
            zeros[i] = i % 2 ? -0.0f : 0.0f;
        EXPECT_TRUE(sameBits(zeros.absMax(), 0.0f)) << n;
        for (float inf : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
            Tensor t = gaussianOf(n, 3);
            t[n - 1] = inf;
            EXPECT_EQ(t.absMax(), std::numeric_limits<float>::infinity())
                << n;
        }
    }
}

/** A NaN anywhere never wins: the peak of the rest does. */
TEST(TensorTest, AbsMaxSkipsNaN)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t n : {1u, 15u, 16u, 17u, 33u, 40u}) {
        for (std::size_t at = 0; at < n; ++at) {
            Tensor t = gaussianOf(n, 7 * n + at);
            t[at] = nan;
            const float m = t.absMax();
            EXPECT_FALSE(std::isnan(m)) << n << " at " << at;
            EXPECT_TRUE(sameBits(m, scannedAbsMax(t))) << n << " at "
                                                       << at;
        }
    }
    Tensor all(Shape(1, 1, 1, 33));
    all.fill(nan);
    EXPECT_TRUE(sameBits(all.absMax(), 0.0f));
    Tensor big = gaussianOf(32768, 11);
    big[12345] = nan;
    big[32767] = -nan;
    EXPECT_TRUE(sameBits(big.absMax(), scannedAbsMax(big)));
}

TEST(TensorTest, ScaleAddAxpy)
{
    Tensor a(Shape(1, 1, 1, 3), 2.0f);
    Tensor b(Shape(1, 1, 1, 3), 1.0f);
    a.scale(3.0f);
    EXPECT_EQ(a[0], 6.0f);
    a.add(b);
    EXPECT_EQ(a[1], 7.0f);
    a.axpy(-2.0f, b);
    EXPECT_EQ(a[2], 5.0f);
}

TEST(TensorTest, AxpyShapeMismatchPanics)
{
    Tensor a(Shape(1, 1, 1, 3));
    Tensor b(Shape(1, 1, 1, 4));
    EXPECT_DEATH(a.axpy(1.0f, b), "mismatch");
}

TEST(TensorTest, Clamp)
{
    Tensor t(Shape(1, 1, 1, 3));
    t[0] = -2.0f;
    t[1] = 0.5f;
    t[2] = 9.0f;
    t.clamp(-1.0f, 1.0f);
    EXPECT_EQ(t[0], -1.0f);
    EXPECT_EQ(t[1], 0.5f);
    EXPECT_EQ(t[2], 1.0f);
}

TEST(TensorTest, FillUniformWithinBounds)
{
    Rng rng(3);
    Tensor t(Shape(1, 1, 10, 10));
    t.fillUniform(rng, -0.5f, 0.5f);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], -0.5f);
        EXPECT_LT(t[i], 0.5f);
    }
}

TEST(TensorTest, FillGaussianRoughMoments)
{
    Rng rng(4);
    Tensor t(Shape(1, 1, 100, 100));
    t.fillGaussian(rng, 1.0f, 0.5f);
    EXPECT_NEAR(t.mean(), 1.0, 0.05);
}

TEST(TensorTest, MaxAbsDiff)
{
    Tensor a(Shape(1, 1, 1, 3), 1.0f);
    Tensor b(Shape(1, 1, 1, 3), 1.0f);
    b[1] = 1.25f;
    EXPECT_FLOAT_EQ(maxAbsDiff(a, b), 0.25f);
}

} // namespace
} // namespace redeye
