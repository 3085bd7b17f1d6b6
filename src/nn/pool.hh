/**
 * @file
 * Spatial pooling layers (max and average).
 *
 * Pooling windows follow Caffe's ceil-mode semantics (GoogLeNet's
 * pool layers rely on it): the output extent is
 * ceil((in + 2*pad - kernel) / stride) + 1, and windows are clipped to
 * the padded input. A geometry in which some window holds no input
 * pixel is rejected.
 *
 * Max pooling is a separable fold: each input row is folded across
 * the window's columns once, a lane vector of outputs at a time, and
 * each output row then folds its window's candidate rows. Rows go
 * before columns, so every output is the first tap in (kh, kw) order
 * that holds the window's maximum. Average pooling folds each output's
 * window across a chunk of planes (DESIGN.md §9, "Pooling").
 */

#ifndef REDEYE_NN_POOL_HH
#define REDEYE_NN_POOL_HH

#include <vector>

#include "nn/layer.hh"

namespace redeye {
namespace nn {

/** Static configuration for pooling. */
struct PoolParams {
    std::size_t kernel = 2;
    std::size_t stride = 2;
    std::size_t pad = 0;

    std::size_t outExtent(std::size_t in) const;
};

/**
 * Max pooling: propagate the largest response in the window, the
 * first tap that is strictly greater than every earlier one (NaN taps
 * never win). Backward recomputes that tap from the input it is given.
 */
class MaxPoolLayer : public Layer
{
  public:
    MaxPoolLayer(std::string name, PoolParams params);

    LayerKind kind() const override { return LayerKind::MaxPool; }

    Shape outputShape(const std::vector<Shape> &in) const override;

    using Layer::forward;
    using Layer::backward;

    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 ExecContext &ctx) override;

    void backward(const std::vector<const Tensor *> &in,
                  const Tensor &out, const Tensor &out_grad,
                  std::vector<Tensor> &in_grads,
                  ExecContext &ctx) override;

    void mixStructure(StructuralHasher &h) const override;

    const PoolParams &poolParams() const { return params_; }

    /** Comparator invocations per forward pass (RedEye workload). */
    std::size_t comparisonCount(const std::vector<Shape> &in) const;

  private:
    PoolParams params_;
    Shape pooled_; ///< input shape of the last forward, for backward
};

/** Average pooling over the window. */
class AvgPoolLayer : public Layer
{
  public:
    AvgPoolLayer(std::string name, PoolParams params);

    LayerKind kind() const override { return LayerKind::AvgPool; }

    Shape outputShape(const std::vector<Shape> &in) const override;

    using Layer::forward;
    using Layer::backward;

    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 ExecContext &ctx) override;

    void backward(const std::vector<const Tensor *> &in,
                  const Tensor &out, const Tensor &out_grad,
                  std::vector<Tensor> &in_grads,
                  ExecContext &ctx) override;

    void mixStructure(StructuralHasher &h) const override;

    const PoolParams &poolParams() const { return params_; }

  private:
    PoolParams params_;
};

} // namespace nn
} // namespace redeye

#endif // REDEYE_NN_POOL_HH
