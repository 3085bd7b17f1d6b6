#include "noise/sensor_noise.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"

namespace redeye {
namespace noise {

SensorSamplingLayer::SensorSamplingLayer(std::string name,
                                         SensorParams params, Rng rng)
    : Layer(std::move(name)), params_(params), seed_(rng.raw()),
      patternRng_(rng.fork())
{
    fatal_if(params_.gamma <= 0.0, "sensor '", this->name(),
             "': gamma must be positive");
    fatal_if(params_.fullWellElectrons <= 0.0, "sensor '", this->name(),
             "': full-well capacity must be positive");
    fatal_if(params_.illuminationScale <= 0.0, "sensor '", this->name(),
             "': illumination scale must be positive");
    fatal_if(params_.prnuSigma < 0.0, "sensor '", this->name(),
             "': PRNU sigma must be non-negative");
    fatal_if(params_.dsnuSigma < 0.0, "sensor '", this->name(),
             "': DSNU sigma must be non-negative");
    fatal_if(params_.readNoiseSigma < 0.0, "sensor '", this->name(),
             "': read noise sigma must be non-negative");
}

Shape
SensorSamplingLayer::outputShape(const std::vector<Shape> &in) const
{
    fatal_if(in.size() != 1, "sensor '", name(), "' takes one input");
    return in[0];
}

void
SensorSamplingLayer::materializeFixedPattern(const Shape &per_item)
{
    if (prnuGain_.shape() == per_item)
        return;
    // Draw the die's static pattern once from a dedicated stream so
    // that shot-noise consumption does not change the pattern.
    Rng pattern_rng = patternRng_.fork();
    prnuGain_ = Tensor(per_item);
    dsnuOffset_ = Tensor(per_item);
    prnuGain_.fillGaussian(pattern_rng, 1.0f,
                           static_cast<float>(params_.prnuSigma));
    dsnuOffset_.fillGaussian(pattern_rng, 0.0f,
                             static_cast<float>(params_.dsnuSigma));
}

void
SensorSamplingLayer::forward(const std::vector<const Tensor *> &in,
                             Tensor &out, ExecContext &ctx)
{
    const Tensor &x = *in[0];
    const Shape &s = x.shape();
    if (out.shape() != s)
        out = Tensor(s);

    if (!enabled_) {
        out.vec() = x.vec();
        return;
    }

    const Shape per_item(1, s.c, s.h, s.w);
    materializeFixedPattern(per_item);

    const double well = params_.fullWellElectrons *
                        params_.illuminationScale;
    const std::size_t slice = s.sliceSize();

    // One key per image and pixel i's draws at counter i (core/rng.hh):
    // sampled values are bit-identical at any thread count or batch
    // split.
    const std::uint64_t pass = pass_++;
    parallelFor(ctx, s.n, [&](std::size_t n) {
        const std::uint64_t key = streamKey(seed_, pass, n);
        const float *xi = x.data() + n * slice;
        float *oi = out.data() + n * slice;
        for (std::size_t i = 0; i < slice; ++i) {
            // sRGB-style value in [0, 1] back to linear intensity.
            const double v = std::clamp(static_cast<double>(xi[i]),
                                        0.0, 1.0);
            double linear = std::pow(v, params_.gamma);

            if (params_.enablePoisson) {
                const double electrons = linear * well;
                linear = static_cast<double>(
                             keyedPoisson(key, i, electrons)) /
                         well;
            }
            if (params_.enableFixedPattern) {
                linear = linear * prnuGain_[i] + dsnuOffset_[i];
            }
            if (params_.readNoiseSigma > 0.0) {
                linear += params_.readNoiseSigma * keyedGaussian(key, i);
            }
            oi[i] = static_cast<float>(linear);
        }
    });
}

void
SensorSamplingLayer::backward(const std::vector<const Tensor *> &in,
                              const Tensor &out, const Tensor &out_grad,
                              std::vector<Tensor> &in_grads,
                              ExecContext &ctx)
{
    (void)in;
    (void)out;
    (void)ctx;
    in_grads[0].add(out_grad);
}

double
SensorSamplingLayer::expectedSnrDb() const
{
    // Mid-scale pixel: signal = 0.5 full scale. Shot-noise sigma in
    // full-scale units is sqrt(N) / well for N collected electrons.
    const double well = params_.fullWellElectrons *
                        params_.illuminationScale;
    const double electrons = 0.5 * well;
    const double shot_sigma = std::sqrt(electrons) / well;
    double var = shot_sigma * shot_sigma;
    if (params_.enableFixedPattern) {
        var += 0.5 * 0.5 * params_.prnuSigma * params_.prnuSigma;
        var += params_.dsnuSigma * params_.dsnuSigma;
    }
    var += params_.readNoiseSigma * params_.readNoiseSigma;
    return 10.0 * std::log10(0.25 / var);
}

} // namespace noise
} // namespace redeye
