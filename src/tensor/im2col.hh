/**
 * @file
 * im2col/col2im lowering for convolution.
 *
 * Convolution is computed as a matrix product over patch columns; the
 * backward pass scatters gradients back with col2im. Both operate on a
 * single batch item (the caller loops over the batch).
 */

#ifndef REDEYE_TENSOR_IM2COL_HH
#define REDEYE_TENSOR_IM2COL_HH

#include <cstddef>
#include <vector>

namespace redeye {

/** Static parameters of a 2-D sliding-window op. */
struct WindowParams {
    std::size_t kernelH = 1;
    std::size_t kernelW = 1;
    std::size_t strideH = 1;
    std::size_t strideW = 1;
    std::size_t padH = 0;
    std::size_t padW = 0;

    /** Output extent for the given input extent (floor semantics). */
    std::size_t
    outH(std::size_t in_h) const
    {
        return (in_h + 2 * padH - kernelH) / strideH + 1;
    }

    std::size_t
    outW(std::size_t in_w) const
    {
        return (in_w + 2 * padW - kernelW) / strideW + 1;
    }

    bool operator==(const WindowParams &o) const = default;
};

/**
 * Expand one CHW image into a (C*kh*kw) x (outH*outW) column matrix.
 * Out-of-bounds (padding) taps read as zero.
 *
 * @param image CHW input, size channels*height*width.
 * @param cols Output buffer, resized by the call.
 */
void im2col(const float *image, std::size_t channels, std::size_t height,
            std::size_t width, const WindowParams &wp,
            std::vector<float> &cols);

/**
 * As above, writing into a caller-provided buffer of
 * channels*kernelH*kernelW*outH*outW floats. The buffer is cleared by
 * the call; the caller chooses where it lives (workspace arena,
 * vector, stack).
 */
void im2col(const float *image, std::size_t channels, std::size_t height,
            std::size_t width, const WindowParams &wp, float *cols);

/**
 * Scatter a column matrix back into a CHW image (accumulating), the
 * adjoint of im2col. @p image must be pre-sized and is zeroed first.
 */
void col2im(const std::vector<float> &cols, std::size_t channels,
            std::size_t height, std::size_t width, const WindowParams &wp,
            float *image);

/** As above, from a caller-provided column buffer. */
void col2im(const float *cols, std::size_t channels, std::size_t height,
            std::size_t width, const WindowParams &wp, float *image);

} // namespace redeye

#endif // REDEYE_TENSOR_IM2COL_HH
