/** @file Tests for max/average pooling. */

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "nn/pool.hh"

namespace redeye {
namespace nn {
namespace {

TEST(PoolParamsTest, CeilModeExtent)
{
    // Caffe ceil semantics: GoogLeNet pool1 maps 114 -> 57.
    PoolParams p{3, 2, 0};
    EXPECT_EQ(p.outExtent(114), 57u);
    EXPECT_EQ(p.outExtent(57), 28u);
    EXPECT_EQ(p.outExtent(28), 14u);
    EXPECT_EQ(p.outExtent(14), 7u);
}

TEST(PoolParamsTest, PaddedWindowClipped)
{
    // With pad, the trailing window must start inside the input.
    PoolParams p{3, 1, 1};
    EXPECT_EQ(p.outExtent(4), 4u);
}

TEST(MaxPoolTest, PicksWindowMaximum)
{
    MaxPoolLayer pool("p", PoolParams{2, 2, 0});
    Tensor x(Shape(1, 1, 2, 4),
             std::vector<float>{1, 5, 2, 0, 3, -1, 7, 4});
    Tensor y;
    pool.forward({&x}, y);
    ASSERT_EQ(y.shape(), Shape(1, 1, 1, 2));
    EXPECT_FLOAT_EQ(y[0], 5.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(MaxPoolTest, HandlesAllNegative)
{
    MaxPoolLayer pool("p", PoolParams{2, 2, 0});
    Tensor x(Shape(1, 1, 2, 2),
             std::vector<float>{-4, -2, -9, -6});
    Tensor y;
    pool.forward({&x}, y);
    EXPECT_FLOAT_EQ(y[0], -2.0f);
}

TEST(MaxPoolTest, ChannelsIndependent)
{
    MaxPoolLayer pool("p", PoolParams{2, 2, 0});
    Tensor x(Shape(1, 2, 2, 2),
             std::vector<float>{1, 2, 3, 4, 40, 30, 20, 10});
    Tensor y;
    pool.forward({&x}, y);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
    EXPECT_FLOAT_EQ(y.at(0, 1, 0, 0), 40.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax)
{
    MaxPoolLayer pool("p", PoolParams{2, 2, 0});
    Tensor x(Shape(1, 1, 2, 2), std::vector<float>{1, 9, 3, 4});
    Tensor y;
    pool.forward({&x}, y);
    Tensor gy(y.shape(), 2.5f);
    std::vector<Tensor> gx{Tensor(x.shape())};
    pool.backward({&x}, y, gy, gx);
    EXPECT_FLOAT_EQ(gx[0][0], 0.0f);
    EXPECT_FLOAT_EQ(gx[0][1], 2.5f);
    EXPECT_FLOAT_EQ(gx[0][2], 0.0f);
    EXPECT_FLOAT_EQ(gx[0][3], 0.0f);
}

TEST(MaxPoolTest, BackwardWithoutForwardPanics)
{
    MaxPoolLayer pool("p", PoolParams{2, 2, 0});
    Tensor x(Shape(1, 1, 2, 2));
    Tensor y(Shape(1, 1, 1, 1));
    Tensor gy(y.shape());
    std::vector<Tensor> gx{Tensor(x.shape())};
    EXPECT_DEATH(pool.backward({&x}, y, gy, gx), "without forward");
}

TEST(MaxPoolTest, ComparisonCount)
{
    MaxPoolLayer pool("p", PoolParams{3, 2, 0});
    // out 57x57 per channel x 64 channels, 8 comparisons each.
    EXPECT_EQ(pool.comparisonCount({Shape(1, 64, 114, 114)}),
              57u * 57 * 64 * 8);
}

TEST(AvgPoolTest, AveragesWindow)
{
    AvgPoolLayer pool("p", PoolParams{2, 2, 0});
    Tensor x(Shape(1, 1, 2, 2), std::vector<float>{1, 2, 3, 6});
    Tensor y;
    pool.forward({&x}, y);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPoolTest, PartialWindowUsesValidCount)
{
    // 3x3 input, 2x2 kernel stride 2 (ceil) -> 2x2 output; edge
    // windows cover fewer pixels and average over the covered count.
    AvgPoolLayer pool("p", PoolParams{2, 2, 0});
    Tensor x(Shape(1, 1, 3, 3),
             std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor y;
    pool.forward({&x}, y);
    ASSERT_EQ(y.shape(), Shape(1, 1, 2, 2));
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), (1 + 2 + 4 + 5) / 4.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), (3 + 6) / 2.0f);
    EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
}

TEST(AvgPoolTest, GlobalPoolReducesToMean)
{
    AvgPoolLayer pool("p", PoolParams{4, 1, 0});
    Tensor x(Shape(1, 1, 4, 4), 2.0f);
    x[0] = 18.0f;
    Tensor y;
    pool.forward({&x}, y);
    ASSERT_EQ(y.shape(), Shape(1, 1, 1, 1));
    EXPECT_FLOAT_EQ(y[0], (15 * 2.0f + 18.0f) / 16.0f);
}

TEST(AvgPoolTest, BackwardSpreadsUniformly)
{
    AvgPoolLayer pool("p", PoolParams{2, 2, 0});
    Tensor x(Shape(1, 1, 2, 2), 1.0f);
    Tensor y;
    pool.forward({&x}, y);
    Tensor gy(y.shape(), 4.0f);
    std::vector<Tensor> gx{Tensor(x.shape())};
    pool.backward({&x}, y, gy, gx);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(gx[0][i], 1.0f);
}

TEST(PoolTest, WindowLargerThanInputFatal)
{
    MaxPoolLayer pool("p", PoolParams{5, 2, 0});
    EXPECT_EXIT((void)pool.outputShape({Shape(1, 1, 3, 3)}),
                ::testing::ExitedWithCode(1), "window larger");
}

TEST(PoolTest, WindowWithoutInputPixelFatal)
{
    // Pad >= kernel: the first row and column of windows lie wholly in
    // the padding. Unchecked, they pooled to -inf, and this backward
    // left 19 in gx[0]: 18 of it from the empty windows of both
    // channels.
    MaxPoolLayer pool("p", PoolParams{2, 1, 2});
    Tensor x(Shape(1, 2, 3, 3), 1.0f);
    EXPECT_EXIT(
        {
            Tensor y;
            pool.forward({&x}, y);
            Tensor gy(y.shape(), 1.0f);
            std::vector<Tensor> gx{Tensor(x.shape())};
            pool.backward({&x}, y, gy, gx);
        },
        ::testing::ExitedWithCode(1), "holds no input pixel");

    // Pad 0, stride > kernel: kernel 1, stride 3 on 5 pixels puts the
    // last window at pixel 6.
    AvgPoolLayer avg("a", PoolParams{1, 3, 0});
    EXPECT_EXIT((void)avg.outputShape({Shape(1, 1, 5, 5)}),
                ::testing::ExitedWithCode(1), "holds no input pixel");
}

/*
 * Generated-geometry sweep. The oracle is the per-window loop the
 * library ran before its row kernels: every output visits its
 * window's taps in (kh, kw) order, bounds-checking each one.
 */

/** Call fn(idx) for each input index of output (n, c, oh, ow)'s window. */
template <typename Fn>
void
forEachWindowTap(const PoolParams &p, const Shape &is, std::size_t n,
                 std::size_t c, std::size_t oh, std::size_t ow, Fn &&fn)
{
    const long h0 = static_cast<long>(oh * p.stride) -
                    static_cast<long>(p.pad);
    const long w0 = static_cast<long>(ow * p.stride) -
                    static_cast<long>(p.pad);
    for (std::size_t kh = 0; kh < p.kernel; ++kh) {
        const long ih = h0 + static_cast<long>(kh);
        if (ih < 0 || ih >= static_cast<long>(is.h))
            continue;
        for (std::size_t kw = 0; kw < p.kernel; ++kw) {
            const long iw = w0 + static_cast<long>(kw);
            if (iw < 0 || iw >= static_cast<long>(is.w))
                continue;
            fn(is.index(n, c, static_cast<std::size_t>(ih),
                        static_cast<std::size_t>(iw)));
        }
    }
}

/** True if some window of the geometry holds no input pixel. */
bool
hasEmptyWindow(const PoolParams &p, const Shape &is)
{
    const Shape os(1, 1, p.outExtent(is.h), p.outExtent(is.w));
    for (std::size_t oh = 0; oh < os.h; ++oh) {
        for (std::size_t ow = 0; ow < os.w; ++ow) {
            std::size_t taps = 0;
            forEachWindowTap(p, is, 0, 0, oh, ow,
                             [&](std::size_t) { ++taps; });
            if (taps == 0)
                return true;
        }
    }
    return false;
}

struct PoolOracle {
    Tensor maxOut;
    Tensor avgOut;
    Tensor maxGrad; ///< out_grad routed to each first strict maximum
    Tensor avgGrad; ///< out_grad spread over each window's valid count
};

PoolOracle
referencePool(const PoolParams &p, const Tensor &x, const Tensor &gy)
{
    const Shape &is = x.shape();
    const Shape &os = gy.shape();
    PoolOracle r{Tensor(os), Tensor(os), Tensor(is), Tensor(is)};
    for (std::size_t n = 0; n < os.n; ++n) {
        for (std::size_t c = 0; c < os.c; ++c) {
            for (std::size_t oh = 0; oh < os.h; ++oh) {
                for (std::size_t ow = 0; ow < os.w; ++ow) {
                    const std::size_t o = os.index(n, c, oh, ow);
                    float best = -std::numeric_limits<float>::infinity();
                    constexpr std::size_t kNone = ~std::size_t{0};
                    std::size_t first = kNone;
                    std::size_t best_idx = kNone;
                    double acc = 0.0;
                    std::size_t count = 0;
                    forEachWindowTap(p, is, n, c, oh, ow,
                                     [&](std::size_t idx) {
                                         if (first == kNone)
                                             first = idx;
                                         if (x[idx] > best) {
                                             best = x[idx];
                                             best_idx = idx;
                                         }
                                         acc += x[idx];
                                         ++count;
                                     });
                    r.maxOut[o] = best;
                    r.avgOut[o] = static_cast<float>(
                        acc / static_cast<double>(count));
                    // No tap above -inf (only -inf and NaN): the
                    // gradient goes to the window's first pixel.
                    r.maxGrad[best_idx == kNone ? first : best_idx] +=
                        gy[o];
                    const float g = gy[o] / static_cast<float>(count);
                    forEachWindowTap(p, is, n, c, oh, ow,
                                     [&](std::size_t idx) {
                                         r.avgGrad[idx] += g;
                                     });
                }
            }
        }
    }
    return r;
}

/**
 * Ties, signed zeros, infinities and NaN, with some distinct values.
 * ±1e20 next to values near 1 make a window's double sum depend on
 * the order of its taps.
 */
Tensor
specialValues(const Shape &shape, Rng &rng)
{
    const float palette[] = {0.0f,
                             -0.0f,
                             1.0f,
                             -1.0f,
                             1e20f,
                             -1e20f,
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
    Tensor x(shape);
    for (std::size_t i = 0; i < x.size(); ++i) {
        const auto pick = rng.uniformInt(0, 9);
        x[i] = pick < 8 ? palette[pick]
                        : static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    return x;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(PoolSweepTest, RowKernelsMatchThePerWindowLoopBitForBit)
{
    Rng rng(19);
    std::size_t geometries = 0;
    for (std::size_t k = 1; k <= 5; ++k) {
        for (std::size_t s = 1; s <= 3; ++s) {
            for (std::size_t pad = 0; pad < k; ++pad) {
                for (std::size_t h = 1; h <= 13; ++h) {
                    for (std::size_t w = 1; w <= 13; ++w) {
                        const PoolParams p{k, s, pad};
                        const Shape is(2, 3, h, w);
                        // Rejected geometries; see the *Fatal tests.
                        if (h + 2 * pad < k || w + 2 * pad < k ||
                            hasEmptyWindow(p, is)) {
                            continue;
                        }
                        const Tensor x = specialValues(is, rng);
                        Tensor gy(Shape(2, 3, p.outExtent(h),
                                        p.outExtent(w)));
                        for (std::size_t i = 0; i < gy.size(); ++i)
                            gy[i] = static_cast<float>(
                                rng.uniform(-1.0, 1.0));
                        const PoolOracle ref = referencePool(p, x, gy);

                        MaxPoolLayer maxp("m", p);
                        AvgPoolLayer avgp("a", p);
                        Tensor ymax;
                        Tensor yavg;
                        maxp.forward({&x}, ymax);
                        avgp.forward({&x}, yavg);
                        std::vector<Tensor> gmax{Tensor(is)};
                        std::vector<Tensor> gavg{Tensor(is)};
                        maxp.backward({&x}, ymax, gy, gmax);
                        avgp.backward({&x}, yavg, gy, gavg);

                        ASSERT_TRUE(sameBits(ymax, ref.maxOut) &&
                                    sameBits(yavg, ref.avgOut) &&
                                    sameBits(gmax[0], ref.maxGrad) &&
                                    sameBits(gavg[0], ref.avgGrad))
                            << "kernel " << k << " stride " << s
                            << " pad " << pad << " on " << is.str();
                        ++geometries;
                    }
                }
            }
        }
    }
    // 5 kernels x 3 strides x their pads x 169 inputs, less the
    // rejected ones.
    EXPECT_EQ(geometries, 6352u);
}

TEST(PoolSweepTest, WideRowsMatchThePerWindowLoopBitForBit)
{
    // Rows of several lane vectors of outputs, and one of more than
    // 128, each against the oracle on the same special values.
    struct Case {
        std::size_t kernel;
        std::size_t stride;
        std::size_t pad;
        std::size_t w;
    };
    std::vector<Case> cases;
    for (std::size_t s = 1; s <= 2; ++s)
        for (std::size_t pad = 0; pad <= 1; ++pad)
            for (std::size_t w = 14; w <= 40; ++w)
                cases.push_back({3, s, pad, w});
    for (const std::size_t w : {9u, 17u, 33u, 40u})
        cases.push_back({1, 1, 0, w});
    for (const std::size_t w : {21u, 30u, 39u}) {
        cases.push_back({5, 2, 2, w});
        cases.push_back({5, 3, 1, w});
    }
    cases.push_back({3, 1, 1, 140}); // 140 outputs a row
    cases.push_back({3, 2, 0, 261}); // 130 outputs a row

    Rng rng(23);
    std::size_t geometries = 0;
    for (const Case &c : cases) {
        for (const std::size_t h : {3u, 8u}) {
            const PoolParams p{c.kernel, c.stride, c.pad};
            const Shape is(1, 2, h, c.w);
            ASSERT_FALSE(hasEmptyWindow(p, is));
            const Tensor x = specialValues(is, rng);
            Tensor gy(Shape(1, 2, p.outExtent(h), p.outExtent(c.w)));
            for (std::size_t i = 0; i < gy.size(); ++i)
                gy[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
            const PoolOracle ref = referencePool(p, x, gy);

            MaxPoolLayer maxp("m", p);
            Tensor y;
            maxp.forward({&x}, y);
            std::vector<Tensor> g{Tensor(is)};
            maxp.backward({&x}, y, gy, g);
            ASSERT_TRUE(sameBits(y, ref.maxOut) &&
                        sameBits(g[0], ref.maxGrad))
                << "kernel " << c.kernel << " stride " << c.stride
                << " pad " << c.pad << " on " << is.str();
            ++geometries;
        }
    }
    EXPECT_EQ(geometries, 240u);
}

TEST(PoolSweepTest, EveryGeometryWithAnEmptyWindowIsFatal)
{
    std::size_t rejected = 0;
    for (std::size_t k = 1; k <= 5; ++k) {
        for (std::size_t s = 1; s <= 3; ++s) {
            for (std::size_t pad = 0; pad <= k; ++pad) {
                for (std::size_t in = 1; in <= 13; ++in) {
                    const PoolParams p{k, s, pad};
                    const Shape is(1, 1, in, in);
                    if (in + 2 * pad < k || !hasEmptyWindow(p, is))
                        continue;
                    MaxPoolLayer maxp("m", p);
                    EXPECT_EXIT((void)maxp.outputShape({is}),
                                ::testing::ExitedWithCode(1),
                                "holds no input pixel")
                        << "kernel " << k << " stride " << s << " pad "
                        << pad << " on " << in;
                    ++rejected;
                }
            }
        }
    }
    // Pad == kernel everywhere, plus pad 0 with stride > kernel.
    EXPECT_EQ(rejected, 213u);
}

/** Property sweep: output extent always covers the whole input. */
class PoolExtentTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(PoolExtentTest, EveryInputPixelIsCoveredBySomeWindow)
{
    const auto [in, kernel, stride] = GetParam();
    if (kernel > in)
        GTEST_SKIP();
    PoolParams p{static_cast<std::size_t>(kernel),
                 static_cast<std::size_t>(stride), 0};
    const std::size_t out = p.outExtent(in);
    // Last window must reach the final input pixel.
    EXPECT_GE((out - 1) * p.stride + p.kernel,
              static_cast<std::size_t>(in));
    // First window starts at 0 (no pad).
    EXPECT_GE(out, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PoolExtentTest,
    ::testing::Combine(::testing::Values(7, 14, 28, 57, 114, 227),
                       ::testing::Values(2, 3),
                       ::testing::Values(1, 2, 3)));

} // namespace
} // namespace nn
} // namespace redeye
