/**
 * @file
 * GEMM kernel layer: pluggable matrix-product backends behind one
 * shape-checked API.
 *
 * Every forward and backward pass in the framework bottoms out in a
 * handful of row-major matrix products (conv via im2col, inner
 * product, and their gradients). This layer provides those products
 * with two interchangeable backends:
 *
 *  - `reference`: the original unblocked scalar loops, kept verbatim
 *    as the always-available golden model. With
 *    `RedeyeKernelBackend=reference` the framework's forward pass is
 *    bit-identical to the historical (pre-kernel-layer) outputs.
 *  - `blocked`: cache-blocked, register-tiled GEMM with packed A/B
 *    panels and an MR x NR microkernel, vectorized with AVX2/FMA
 *    intrinsics when the build enables them (`__AVX2__`/`__FMA__`)
 *    and with portable autovectorizable loops otherwise.
 *
 * Backend selection is process-wide: the `RedeyeKernelBackend`
 * environment variable pins a run to `reference` or `blocked`
 * (default `blocked`), and setBackend() overrides it
 * programmatically (tests). Both backends are bit-identical across
 * thread counts for a fixed shape. The blocked backend can execute a
 * single product *in parallel* when handed an ExecContext: the column
 * dimension is partitioned into NR-sliver ranges and each worker runs
 * the full blocked loop nest over its range, packing into panels
 * carved from its Workspace lane arena. Because every C element is
 * one fmadd chain over k in ascending order within its own SIMD lane,
 * and lane arithmetic never depends on which range a column landed
 * in, any partition of the columns — one worker or sixteen — yields
 * bit-identical C (DESIGN.md §12). Callers that parallelize *around*
 * gemm (per batch chunk, under ExecContext) keep working: a gemm
 * issued from inside a chunk of the context's own pool detects the
 * nesting and runs serially on the caller's lane.
 *
 * ## Shape discipline
 *
 * The transposed variants take the *stored* extents of each operand
 * as a named MatShape, and derive (and validate) the m/k/n of the
 * product from them, so a swapped dimension fails the shape check
 * instead of corrupting memory or computing a wrong product.
 */

#ifndef REDEYE_TENSOR_KERNELS_HH
#define REDEYE_TENSOR_KERNELS_HH

#include <cstddef>
#include <vector>

#include "tensor/im2col.hh"

namespace redeye {

class ExecContext;

namespace kernels {

/** Available GEMM implementations. */
enum class Backend {
    Reference, ///< unblocked scalar loops (golden model)
    Blocked,   ///< packed-panel, register-tiled, vectorized
};

/**
 * Active backend: the setBackend() override if one is installed,
 * else the value of the `RedeyeKernelBackend` environment variable
 * (`reference` | `blocked`, case-insensitive; unset = blocked).
 * An unrecognized value is a fatal error.
 */
Backend backend();

/** Install a process-wide backend override (tests, tools). */
void setBackend(Backend b);

/** Drop the override, returning to the environment selection. */
void clearBackendOverride();

/** Stable lowercase name of a backend ("reference"/"blocked"). */
const char *backendName(Backend b);

/** Stored extents of a row-major matrix operand. */
struct MatShape {
    std::size_t rows = 0;
    std::size_t cols = 0;
};

/** How an epilogue bias vector broadcasts over C. */
enum class BiasKind {
    None,
    PerRow, ///< bias[i] added to every element of row i
    PerCol, ///< bias[j] added to every element of column j
};

/**
 * Fused epilogue of a gemm call: optional accumulation into the
 * existing contents of C (otherwise C is overwritten) and an
 * optional broadcast bias added after the product completes.
 */
struct Epilogue {
    bool accumulate = false;
    const float *bias = nullptr;
    BiasKind biasKind = BiasKind::None;

    /** C += A*B. */
    static Epilogue
    accumulateInto()
    {
        Epilogue e;
        e.accumulate = true;
        return e;
    }

    /** C = A*B, then C[i][j] += bias[i]. */
    static Epilogue
    biasPerRow(const float *bias)
    {
        Epilogue e;
        e.bias = bias;
        e.biasKind = BiasKind::PerRow;
        return e;
    }

    /** C = A*B, then C[i][j] += bias[j]. */
    static Epilogue
    biasPerCol(const float *bias)
    {
        Epilogue e;
        e.bias = bias;
        e.biasKind = BiasKind::PerCol;
        return e;
    }
};

/**
 * C[m x n] = A[m x k] * B[k x n] (+ epilogue), row-major.
 * Requires as.cols == bs.rows; m = as.rows, k = as.cols, n = bs.cols.
 */
void gemm(const float *a, MatShape as, const float *b, MatShape bs,
          float *c, const Epilogue &ep = {});

/**
 * C[m x n] = A^T * B (+ epilogue), with A stored [k x m].
 * Requires as.rows == bs.rows; m = as.cols, k = as.rows, n = bs.cols.
 */
void gemmTransA(const float *a, MatShape as, const float *b,
                MatShape bs, float *c, const Epilogue &ep = {});

/**
 * C[m x n] = A * B^T (+ epilogue), with B stored [n x k].
 * Requires as.cols == bs.cols; m = as.rows, k = as.cols, n = bs.rows.
 */
void gemmTransB(const float *a, MatShape as, const float *b,
                MatShape bs, float *c, const Epilogue &ep = {});

/**
 * Context-aware flavours: same products, but the blocked backend
 * draws its pack panels from @p ctx's Workspace lane arenas instead
 * of thread-local vectors (so steady-state serving allocates
 * nothing), and parallelizes the column loop over the context's pool
 * when the call is large enough and not already nested inside one of
 * that pool's chunks. @p lane is the caller's ExecContext lane (the
 * chunk index of the enclosing parallelForChunks, 0 at top level);
 * it selects the arena for the serial path. Results are bit-identical
 * to the context-free flavours at any thread count.
 */
void gemm(const float *a, MatShape as, const float *b, MatShape bs,
          float *c, const Epilogue &ep, ExecContext &ctx,
          std::size_t lane);
void gemmTransA(const float *a, MatShape as, const float *b,
                MatShape bs, float *c, const Epilogue &ep,
                ExecContext &ctx, std::size_t lane);
void gemmTransB(const float *a, MatShape as, const float *b,
                MatShape bs, float *c, const Epilogue &ep,
                ExecContext &ctx, std::size_t lane);

/**
 * One product of a batched GEMM: C = A * B with an optional
 * per-problem bias vector overriding the shared Epilogue's.
 */
struct GemmProblem {
    const float *a = nullptr;
    const float *b = nullptr;
    float *c = nullptr;
    const float *bias = nullptr; ///< nullptr = use Epilogue::bias
};

/**
 * Execute @p count same-shape plain (no-transpose) products in one
 * parallel pass over the flattened (problem, column-range) space —
 * the batched-tail primitive: a layer lowers a whole frame batch and
 * issues one gemmBatch instead of per-item gemms. Per-problem bits
 * are identical to a serial per-problem gemm at any thread count and
 * any batch composition. Must be called from outside @p ctx's pool
 * (top level of a layer forward); when nested or serial it runs the
 * problems on lane @p lane.
 */
void gemmBatch(const GemmProblem *problems, std::size_t count,
               MatShape as, MatShape bs, const Epilogue &ep,
               ExecContext &ctx, std::size_t lane = 0);

/**
 * Arena floats one GEMM worker lane needs for its pack panels.
 * Workers that must not allocate mid-serve reserve this per lane up
 * front (Workspace::arena().reserve), making the PR-6 zero
 * steady-state-allocation guarantee hold from the very first frame
 * even with threaded GEMM.
 */
std::size_t gemmPackFloats();

/**
 * im2col lowering dispatched by backend. Both backends produce
 * byte-identical columns (it is pure data movement); the blocked
 * backend uses a bounds-precomputed fast path (memcpy rows for
 * stride-1) instead of the per-element branch of the reference loop.
 */
void im2col(const float *image, std::size_t channels,
            std::size_t height, std::size_t width,
            const WindowParams &wp, std::vector<float> &cols);

/**
 * im2col into a caller-provided buffer of
 * channels*kernelH*kernelW*outH*outW floats (cleared by the call).
 * The hot-path flavour: layers point it at workspace arena spans so
 * steady-state lowering allocates nothing.
 */
void im2col(const float *image, std::size_t channels,
            std::size_t height, std::size_t width,
            const WindowParams &wp, float *cols);

/** col2im scatter (adjoint of im2col); see tensor/im2col.hh. */
void col2im(const std::vector<float> &cols, std::size_t channels,
            std::size_t height, std::size_t width,
            const WindowParams &wp, float *image);

/** col2im from a caller-provided column buffer. */
void col2im(const float *cols, std::size_t channels,
            std::size_t height, std::size_t width,
            const WindowParams &wp, float *image);

} // namespace kernels
} // namespace redeye

#endif // REDEYE_TENSOR_KERNELS_HH
