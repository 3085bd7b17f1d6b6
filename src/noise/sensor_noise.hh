/**
 * @file
 * Raw image sampling model.
 *
 * The evaluation "undoes gamma correction to simulate raw pixel
 * values" and "emulates photodiode noise and other analog sampling
 * effects by applying Poisson noise and fixed pattern noise in the
 * input layer" (Section V-A). SensorSamplingLayer implements that
 * front end:
 *
 *   1. inverse gamma (x^gamma) to linear photon counts,
 *   2. Poisson shot noise at a configurable full-well electron count,
 *   3. static per-pixel fixed-pattern noise (gain and offset),
 *   4. additive Gaussian read noise,
 *   5. renormalization back to [0, 1].
 *
 * Shot and read noise are counter-keyed draws (core/rng.hh): image n
 * of pass p is keyed by streamKey(seed, p, n), and pixel i draws
 * keyedPoisson(key, i, electrons) and keyedGaussian(key, i). Each
 * pixel's noise is then a pure function of its own index, and no draw
 * touches shared state (std::poisson_distribution's lgamma writes
 * glibc's global signgam).
 */

#ifndef REDEYE_NOISE_SENSOR_NOISE_HH
#define REDEYE_NOISE_SENSOR_NOISE_HH

#include "core/rng.hh"
#include "nn/layer.hh"

namespace redeye {
namespace noise {

/** Photodiode/sampling model parameters. */
struct SensorParams {
    double gamma = 2.2;          ///< display gamma being undone
    double fullWellElectrons = 4000.0; ///< electrons at full scale
    double prnuSigma = 0.01;     ///< photo-response non-uniformity (gain)
    double dsnuSigma = 0.002;    ///< dark-signal non-uniformity (offset)
    double readNoiseSigma = 0.001; ///< additive read noise, full-scale units
    bool enablePoisson = true;
    bool enableFixedPattern = true;

    /**
     * Scene illumination scale factor; 1.0 is nominal. Low-light
     * operation (e.g. the paper's 1-lux discussion) reduces photon
     * counts and thus the achievable SNR.
     */
    double illuminationScale = 1.0;
};

/** Raw sampling front end as a network layer. */
class SensorSamplingLayer : public nn::Layer
{
  public:
    /**
     * @param rng Seeds the per-item keys of the shot and read noise
     * (see core/rng.hh); the fixed-pattern maps are drawn once from a
     * fork of it (static per instance, as on a physical die).
     */
    SensorSamplingLayer(std::string name, SensorParams params, Rng rng);

    nn::LayerKind kind() const override { return nn::LayerKind::Custom; }

    Shape outputShape(const std::vector<Shape> &in) const override;

    using Layer::forward;
    using Layer::backward;

    void forward(const std::vector<const Tensor *> &in, Tensor &out,
                 ExecContext &ctx) override;

    /** Pass-through gradient (noise treated as additive). */
    void backward(const std::vector<const Tensor *> &in,
                  const Tensor &out, const Tensor &out_grad,
                  std::vector<Tensor> &in_grads,
                  ExecContext &ctx) override;

    const SensorParams &sensorParams() const { return params_; }

    void setEnabled(bool enabled) { enabled_ = enabled; }

    bool enabled() const { return enabled_; }

    /**
     * Pin the pass counter so the next forward() draws the noise of
     * pass @p pass (it then advances as usual). The streaming runtime
     * keys the counter to the frame index so that every replica of
     * this layer — one per stage worker — realizes the same noise for
     * the same frame, regardless of which worker serves it.
     */
    void setPass(std::uint64_t pass) { pass_ = pass; }

    /** Pass the next forward() will consume. */
    std::uint64_t pass() const { return pass_; }

    /**
     * Expected output SNR in dB for a mid-scale pixel under the
     * current parameters (shot-noise limited estimate).
     */
    double expectedSnrDb() const;

  private:
    void materializeFixedPattern(const Shape &per_item);

    SensorParams params_;
    std::uint64_t seed_;     ///< base of the per-item noise keys
    std::uint64_t pass_ = 0; ///< counts noisy forward passes
    Rng patternRng_;         ///< dedicated stream for the die pattern
    bool enabled_ = true;
    Tensor prnuGain_;   ///< per-pixel gain map (n == 1)
    Tensor dsnuOffset_; ///< per-pixel offset map (n == 1)
};

} // namespace noise
} // namespace redeye

#endif // REDEYE_NOISE_SENSOR_NOISE_HH
