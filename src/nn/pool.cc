#include "nn/pool.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/lanes.hh"
#include "core/logging.hh"
#include "core/structural_hash.hh"
#include "core/workspace.hh"

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

/** Planes per chunk of avgPoolPlanes' stack buffer. */
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
 * Scratch layout of maxPoolPlanes: a -inf-padded copy of one input
 * plane, `pitch` floats a row, then one candidate row of `width`
 * floats per input row.
 */
struct FoldScratch {
    explicit FoldScratch(const Grid &g)
        : width((g.w.out + lanes::kWidth - 1) / lanes::kWidth *
                lanes::kWidth),
          // Column c of the padded row is input column c - pad. It
          // reaches every tap of every lane of the last vector.
          pitch(std::max(g.w.pad + g.w.in,
                         (width - 1) * g.w.stride + g.w.kernel)),
          floats(g.h.in * (pitch + width))
    {
    }

    std::size_t width;
    std::size_t pitch;
    std::size_t floats;
};

/**
 * Max-pools @p n consecutive input planes from @p x into their output
 * planes at @p y as a separable fold, with @p scratch of s.floats.
 *
 * Each input row is folded across the window's columns once, from a
 * -inf-padded copy, into one candidate per output column: the strict
 * `>` fold of its taps in kw order, a vector of outputs at a time.
 * Each output row then folds the candidate rows of its window in kh
 * order. So every output is the strict-`>` fold of its taps in (kh,
 * kw) order, row before column (DESIGN.md §9, "Pooling").
 */
void
maxPoolPlanes(const Grid &g, const FoldScratch &s, const float *x,
              float *y, std::size_t n, float *scratch)
{
    // Local copies: the lane stores below may alias any memory, and
    // would otherwise reload the geometry after every store.
    const Axis h = g.h;
    const Axis w = g.w;
    const std::size_t width = s.width;
    const std::size_t pitch = s.pitch;
    float *padded = scratch;
    float *cand = scratch + h.in * pitch;
    // Only the payload is rewritten per plane; the borders stay -inf.
    std::fill_n(padded, h.in * pitch, kNegInf);
    for (std::size_t p = 0; p < n; ++p) {
        const float *xp = x + p * h.in * w.in;
        float *yp = y + p * h.out * w.out;
        for (std::size_t ih = 0; ih < h.in; ++ih) {
            const float *src = xp + ih * w.in;
            float *dst = padded + ih * pitch + w.pad;
            for (std::size_t iw = 0; iw < w.in; ++iw)
                dst[iw] = src[iw];
        }
        for (std::size_t ih = 0; ih < h.in; ++ih) {
            const float *row = padded + ih * pitch;
            for (std::size_t ow = 0; ow < width; ow += lanes::kWidth) {
                const float *taps = row + ow * w.stride;
                lanes::F32 best = lanes::F32{} + kNegInf;
                for (std::size_t kw = 0; kw < w.kernel; ++kw) {
                    // Lane l is output ow + l, whose taps start l
                    // strides further along the padded row: adjacent
                    // at stride 1, so one load reads them.
                    lanes::F32 tap;
                    if (w.stride == 1) {
                        lanes::load(tap, taps + kw);
                    } else {
                        for (std::size_t l = 0; l < lanes::kWidth; ++l)
                            tap[l] = taps[kw + l * w.stride];
                    }
                    best = tap > best ? tap : best;
                }
                lanes::store(cand + ih * width + ow, best);
            }
        }
        for (std::size_t oh = 0; oh < h.out; ++oh) {
            const PoolRun rows = h.window(oh);
            float *dst = yp + oh * w.out;
            for (std::size_t ow = 0; ow < width; ow += lanes::kWidth) {
                const float *col = cand + ow;
                // A candidate is never NaN, so the fold from -inf
                // starts at the window's first row as is.
                lanes::F32 best;
                lanes::load(best, col + rows.begin * width);
                for (std::size_t ih = rows.begin + 1; ih < rows.end;
                     ++ih) {
                    lanes::F32 c;
                    lanes::load(c, col + ih * width);
                    best = c > best ? c : best;
                }
                lanes::store(dst + ow, best,
                             std::min(lanes::kWidth, w.out - ow));
            }
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
    const FoldScratch fold(g);
    Workspace *ws = ctx.workspace();
    // Each (item, channel) plane is independent.
    parallelForChunks(ctx, os.n * os.c, [&](std::size_t p0, std::size_t p1,
                                            std::size_t lane) {
        std::optional<ArenaScope> scope;
        std::vector<float> local;
        float *scratch;
        if (ws) {
            Arena &arena = ws->arena(lane);
            scope.emplace(arena);
            scratch = arena.alloc<float>(fold.floats);
        } else {
            local.resize(fold.floats);
            scratch = local.data();
        }
        maxPoolPlanes(g, fold, x.data() + p0 * is.planeSize(),
                      out.data() + p0 * os.planeSize(), p1 - p0, scratch);
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
