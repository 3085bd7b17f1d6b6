#include "tensor/im2col.hh"

#include <cstring>

namespace redeye {

void
im2col(const float *image, std::size_t channels, std::size_t height,
       std::size_t width, const WindowParams &wp,
       std::vector<float> &cols)
{
    const std::size_t out_h = wp.outH(height);
    const std::size_t out_w = wp.outW(width);
    const std::size_t rows = channels * wp.kernelH * wp.kernelW;
    cols.resize(rows * out_h * out_w);
    im2col(image, channels, height, width, wp, cols.data());
}

void
im2col(const float *image, std::size_t channels, std::size_t height,
       std::size_t width, const WindowParams &wp, float *cols)
{
    const std::size_t out_h = wp.outH(height);
    const std::size_t out_w = wp.outW(width);
    const std::size_t rows = channels * wp.kernelH * wp.kernelW;
    std::memset(cols, 0, rows * out_h * out_w * sizeof(float));

    std::size_t row = 0;
    for (std::size_t c = 0; c < channels; ++c) {
        for (std::size_t kh = 0; kh < wp.kernelH; ++kh) {
            for (std::size_t kw = 0; kw < wp.kernelW; ++kw, ++row) {
                float *dst = cols + row * out_h * out_w;
                for (std::size_t oh = 0; oh < out_h; ++oh) {
                    const long ih = static_cast<long>(oh * wp.strideH +
                                                      kh) -
                                    static_cast<long>(wp.padH);
                    if (ih < 0 || ih >= static_cast<long>(height)) {
                        dst += out_w;
                        continue;
                    }
                    const float *src = image +
                                       (c * height +
                                        static_cast<std::size_t>(ih)) *
                                           width;
                    for (std::size_t ow = 0; ow < out_w; ++ow) {
                        const long iw =
                            static_cast<long>(ow * wp.strideW + kw) -
                            static_cast<long>(wp.padW);
                        if (iw >= 0 && iw < static_cast<long>(width))
                            *dst = src[static_cast<std::size_t>(iw)];
                        ++dst;
                    }
                }
            }
        }
    }
}

void
col2im(const std::vector<float> &cols, std::size_t channels,
       std::size_t height, std::size_t width, const WindowParams &wp,
       float *image)
{
    col2im(cols.data(), channels, height, width, wp, image);
}

void
col2im(const float *cols, std::size_t channels, std::size_t height,
       std::size_t width, const WindowParams &wp, float *image)
{
    const std::size_t out_h = wp.outH(height);
    const std::size_t out_w = wp.outW(width);
    std::memset(image, 0, channels * height * width * sizeof(float));

    std::size_t row = 0;
    for (std::size_t c = 0; c < channels; ++c) {
        for (std::size_t kh = 0; kh < wp.kernelH; ++kh) {
            for (std::size_t kw = 0; kw < wp.kernelW; ++kw, ++row) {
                const float *src = cols + row * out_h * out_w;
                for (std::size_t oh = 0; oh < out_h; ++oh) {
                    const long ih = static_cast<long>(oh * wp.strideH +
                                                      kh) -
                                    static_cast<long>(wp.padH);
                    if (ih < 0 || ih >= static_cast<long>(height)) {
                        src += out_w;
                        continue;
                    }
                    float *dst = image +
                                 (c * height +
                                  static_cast<std::size_t>(ih)) *
                                     width;
                    for (std::size_t ow = 0; ow < out_w; ++ow) {
                        const long iw =
                            static_cast<long>(ow * wp.strideW + kw) -
                            static_cast<long>(wp.padW);
                        if (iw >= 0 && iw < static_cast<long>(width))
                            dst[static_cast<std::size_t>(iw)] += *src;
                        ++src;
                    }
                }
            }
        }
    }
}

} // namespace redeye
