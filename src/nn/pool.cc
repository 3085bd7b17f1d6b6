#include "nn/pool.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/logging.hh"
#include "core/structural_hash.hh"

namespace redeye {
namespace nn {

std::size_t
PoolParams::outExtent(std::size_t in) const
{
    // Caffe ceil-mode pooling.
    const double num = static_cast<double>(in + 2 * pad - kernel);
    auto out = static_cast<std::size_t>(
        std::ceil(num / static_cast<double>(stride))) + 1;
    // Clip the last window so it starts inside the (padded) input.
    if (pad > 0 && (out - 1) * stride >= in + pad)
        --out;
    return out;
}

namespace {

/** Outputs, or planes, per chunk of the kernels' stack buffers. */
constexpr std::size_t kChunk = 64;

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/**
 * Validate @p params on input @p in and return the pooled shape.
 * Allocation-free, so forward() runs it on every pass.
 */
Shape
pooledShape(const char *what, const std::string &name,
            const PoolParams &params, const Shape &in)
{
    fatal_if(params.kernel == 0 || params.stride == 0, what, " '", name,
             "': kernel and stride must be positive");
    fatal_if(in.h + 2 * params.pad < params.kernel ||
                 in.w + 2 * params.pad < params.kernel,
             what, " '", name, "': window larger than padded input ",
             in.str());
    const Shape out(in.n, in.c, params.outExtent(in.h),
                    params.outExtent(in.w));
    // Window starts grow with the output index, so every window holds
    // an input pixel iff the first one ends after the input's start
    // and the last one starts before its end.
    auto covered = [&](std::size_t in_extent, std::size_t out_extent) {
        return in_extent > 0 && params.pad < params.kernel &&
               (out_extent - 1) * params.stride < in_extent + params.pad;
    };
    fatal_if(!covered(in.h, out.h) || !covered(in.w, out.w), what, " '",
             name, "': a window holds no input pixel (kernel ",
             params.kernel, ", stride ", params.stride, ", pad ",
             params.pad, ") on ", in.str());
    return out;
}

/** An index range [begin, end) along one axis: pixels or outputs. */
struct PoolRun {
    std::size_t begin;
    std::size_t end;

    std::size_t size() const { return end - begin; }
};

/**
 * Window geometry along one spatial axis: output o's window covers
 * input pixels [o * stride - pad, o * stride - pad + kernel), clipped
 * to [0, in). pooledShape() guarantees no window is empty.
 */
struct Axis {
    std::size_t in;
    std::size_t out;
    std::size_t kernel;
    std::size_t stride;
    std::size_t pad;

    /** Input pixels of output o's window. */
    PoolRun
    window(std::size_t o) const
    {
        const std::size_t start = o * stride;
        return {start > pad ? start - pad : 0,
                std::min(start + kernel - pad, in)};
    }

    /** Outputs whose window tap t lands on an input pixel. */
    PoolRun
    reach(std::size_t t) const
    {
        // Output o's tap t sits at input pixel o * stride + t - pad.
        const std::size_t lo =
            t >= pad ? 0 : (pad - t + stride - 1) / stride;
        const std::size_t hi =
            in + pad > t ? std::min((in + pad - t - 1) / stride + 1, out)
                         : 0;
        return {std::min(lo, hi), hi};
    }
};

/** The window grid of one pass over the (item, channel) planes. */
struct Grid {
    Grid(const PoolParams &p, const Shape &in, const Shape &out)
        : h{in.h, out.h, p.kernel, p.stride, p.pad},
          w{in.w, out.w, p.kernel, p.stride, p.pad}
    {
    }

    Axis h;
    Axis w;
};

/**
 * Max-pools one input plane @p x into the output plane @p y as a row
 * kernel: each window tap of output row oh is folded across the run of
 * outputs it reaches, taps in (kh, kw) order.
 */
void
maxPoolPlane(const Grid &g, const float *x, float *y)
{
    const std::size_t stride = g.w.stride;
    for (std::size_t oh = 0; oh < g.h.out; ++oh) {
        const PoolRun rows = g.h.window(oh);
        for (std::size_t ow0 = 0; ow0 < g.w.out; ow0 += kChunk) {
            const std::size_t ow1 = std::min(ow0 + kChunk, g.w.out);
            float best[kChunk];
            std::fill_n(best, ow1 - ow0, kNegInf);
            for (std::size_t ih = rows.begin; ih < rows.end; ++ih) {
                const float *row = x + ih * g.w.in;
                for (std::size_t kw = 0; kw < g.w.kernel; ++kw) {
                    const PoolRun outs = g.w.reach(kw);
                    const std::size_t lo = std::max(outs.begin, ow0);
                    const std::size_t hi = std::min(outs.end, ow1);
                    if (lo >= hi)
                        continue;
                    // Outputs lo, lo + 1, ... take this tap from src[0],
                    // src[stride], ...; reach() keeps them inside the row.
                    const float *src = row + (lo * stride + kw - g.w.pad);
                    float *b = best + (lo - ow0);
                    for (std::size_t j = 0; j < hi - lo; ++j) {
                        const float v = src[j * stride];
                        b[j] = v > b[j] ? v : b[j];
                    }
                }
            }
            std::copy(best, best + (ow1 - ow0), y + oh * g.w.out + ow0);
        }
    }
}

/**
 * Average-pools @p n consecutive input planes from @p x into their
 * output planes at @p y. Each output's window taps are added in
 * (kh, kw) order, folded across the planes at once: one plane's tap
 * lies one input plane after the previous plane's.
 */
void
avgPoolPlanes(const Grid &g, const float *x, float *y, std::size_t n)
{
    const std::size_t in_plane = g.h.in * g.w.in;
    const std::size_t out_plane = g.h.out * g.w.out;
    double acc[kChunk];
    for (std::size_t oh = 0; oh < g.h.out; ++oh) {
        const PoolRun rows = g.h.window(oh);
        for (std::size_t ow = 0; ow < g.w.out; ++ow) {
            const PoolRun cols = g.w.window(ow);
            std::fill_n(acc, n, 0.0);
            for (std::size_t ih = rows.begin; ih < rows.end; ++ih) {
                for (std::size_t iw = cols.begin; iw < cols.end; ++iw) {
                    const float *src = x + (ih * g.w.in + iw);
                    for (std::size_t j = 0; j < n; ++j)
                        acc[j] += static_cast<double>(src[j * in_plane]);
                }
            }
            const auto count = static_cast<double>(rows.size() * cols.size());
            float *dst = y + (oh * g.w.out + ow);
            for (std::size_t j = 0; j < n; ++j)
                dst[j * out_plane] = static_cast<float>(acc[j] / count);
        }
    }
}

/**
 * Max-pool backward of one plane, output by output: find the window's
 * first strict maximum, then add the output gradient there.
 */
void
maxPoolBackwardPlane(const Grid &g, const float *x, const float *gy,
                     float *dx)
{
    for (std::size_t oh = 0; oh < g.h.out; ++oh) {
        const PoolRun rows = g.h.window(oh);
        for (std::size_t ow = 0; ow < g.w.out; ++ow) {
            const PoolRun cols = g.w.window(ow);
            // A window of only -inf and NaN routes to its first pixel.
            std::size_t arg = rows.begin * g.w.in + cols.begin;
            float best = kNegInf;
            for (std::size_t ih = rows.begin; ih < rows.end; ++ih) {
                for (std::size_t iw = cols.begin; iw < cols.end; ++iw) {
                    const std::size_t at = ih * g.w.in + iw;
                    const bool wins = x[at] > best;
                    best = wins ? x[at] : best;
                    arg = wins ? at : arg;
                }
            }
            dx[arg] += gy[oh * g.w.out + ow];
        }
    }
}

/** Average-pool backward of one plane, output by output. */
void
avgPoolBackwardPlane(const Grid &g, const float *gy, float *dx)
{
    for (std::size_t oh = 0; oh < g.h.out; ++oh) {
        const PoolRun rows = g.h.window(oh);
        for (std::size_t ow = 0; ow < g.w.out; ++ow) {
            const PoolRun cols = g.w.window(ow);
            const float grad =
                gy[oh * g.w.out + ow] /
                static_cast<float>(rows.size() * cols.size());
            for (std::size_t ih = rows.begin; ih < rows.end; ++ih) {
                for (std::size_t iw = cols.begin; iw < cols.end; ++iw)
                    dx[ih * g.w.in + iw] += grad;
            }
        }
    }
}

} // namespace

MaxPoolLayer::MaxPoolLayer(std::string name, PoolParams params)
    : Layer(std::move(name)), params_(params)
{
}

Shape
MaxPoolLayer::outputShape(const std::vector<Shape> &in) const
{
    fatal_if(in.size() != 1, "maxpool '", name(), "' takes one input");
    return pooledShape("maxpool", name(), params_, in[0]);
}

void
MaxPoolLayer::forward(const std::vector<const Tensor *> &in, Tensor &out,
                      ExecContext &ctx)
{
    const Tensor &x = *in[0];
    const Shape &is = x.shape();
    const Shape os = pooledShape("maxpool", name(), params_, is);
    if (out.shape() != os)
        out = Tensor(os);
    pooled_ = is;

    const Grid g(params_, is, os);
    // Each (item, channel) plane is independent.
    parallelFor(ctx, os.n * os.c, [&](std::size_t plane) {
        maxPoolPlane(g, x.data() + plane * is.planeSize(),
                     out.data() + plane * os.planeSize());
    });
}

void
MaxPoolLayer::backward(const std::vector<const Tensor *> &in,
                       const Tensor &out, const Tensor &out_grad,
                       std::vector<Tensor> &in_grads, ExecContext &ctx)
{
    (void)out;
    const Tensor &x = *in[0];
    const Shape &is = x.shape();
    panic_if(pooled_ != is, "maxpool '", name(),
             "' backward without forward");
    const Shape os = pooledShape("maxpool", name(), params_, is);
    Tensor &dx = in_grads[0];

    // Windows overlap spatially but never across planes.
    const Grid g(params_, is, os);
    parallelFor(ctx, os.n * os.c, [&](std::size_t plane) {
        maxPoolBackwardPlane(g, x.data() + plane * is.planeSize(),
                             out_grad.data() + plane * os.planeSize(),
                             dx.data() + plane * is.planeSize());
    });
}

std::size_t
MaxPoolLayer::comparisonCount(const std::vector<Shape> &in) const
{
    const Shape os = outputShape(in);
    return os.size() * (params_.kernel * params_.kernel - 1);
}

void
MaxPoolLayer::mixStructure(StructuralHasher &h) const
{
    h.mix(params_.kernel).mix(params_.stride).mix(params_.pad);
}

AvgPoolLayer::AvgPoolLayer(std::string name, PoolParams params)
    : Layer(std::move(name)), params_(params)
{
}

Shape
AvgPoolLayer::outputShape(const std::vector<Shape> &in) const
{
    fatal_if(in.size() != 1, "avgpool '", name(), "' takes one input");
    return pooledShape("avgpool", name(), params_, in[0]);
}

void
AvgPoolLayer::forward(const std::vector<const Tensor *> &in, Tensor &out,
                      ExecContext &ctx)
{
    const Tensor &x = *in[0];
    const Shape &is = x.shape();
    const Shape os = pooledShape("avgpool", name(), params_, is);
    if (out.shape() != os)
        out = Tensor(os);

    const Grid g(params_, is, os);
    const std::size_t planes = os.n * os.c;
    parallelFor(ctx, (planes + kChunk - 1) / kChunk, [&](std::size_t chunk) {
        const std::size_t p0 = chunk * kChunk;
        avgPoolPlanes(g, x.data() + p0 * is.planeSize(),
                      out.data() + p0 * os.planeSize(),
                      std::min(kChunk, planes - p0));
    });
}

void
AvgPoolLayer::backward(const std::vector<const Tensor *> &in,
                       const Tensor &out, const Tensor &out_grad,
                       std::vector<Tensor> &in_grads, ExecContext &ctx)
{
    (void)out;
    const Shape &is = in[0]->shape();
    const Shape os = pooledShape("avgpool", name(), params_, is);
    Tensor &dx = in_grads[0];

    // Windows overlap spatially but never across planes.
    const Grid g(params_, is, os);
    parallelFor(ctx, os.n * os.c, [&](std::size_t plane) {
        avgPoolBackwardPlane(g, out_grad.data() + plane * os.planeSize(),
                             dx.data() + plane * is.planeSize());
    });
}

void
AvgPoolLayer::mixStructure(StructuralHasher &h) const
{
    h.mix(params_.kernel).mix(params_.stride).mix(params_.pad);
}

} // namespace nn
} // namespace redeye
