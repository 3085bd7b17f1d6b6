#include "analog/sar_adc.hh"

#include <algorithm>
#include <cmath>

#include "analog/capacitor.hh"
#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {

SarAdc::SarAdc(SarAdcParams params, const ProcessParams &process,
               Rng &rng)
    : params_(params), process_(process),
      comparator_(params.comparator, process), bits_(params.maxBits)
{
    fatal_if(params_.maxBits < 1 || params_.maxBits > kMaxResolution,
             "SAR resolution must be in [1, ", kMaxResolution, "], got ",
             params_.maxBits);

    // Draw this instance's binary-weighted array with Pelgrom
    // mismatch: C_i is nominally 2^(i-1) unit capacitors.
    capsF_.resize(params_.maxBits);
    for (unsigned i = 1; i <= params_.maxBits; ++i) {
        const double nominal = std::ldexp(process_.unitCapF,
                                          static_cast<int>(i) - 1);
        capsF_[i - 1] = drawMismatchedCap(nominal, process_.unitCapF,
                                          params_.capMismatchSigma0,
                                          rng);
    }
    bridgeCapF_ = drawMismatchedCap(process_.unitCapF,
                                    process_.unitCapF,
                                    params_.capMismatchSigma0, rng);
}

void
SarAdc::setResolution(unsigned bits)
{
    fatal_if(bits < 1 || bits > params_.maxBits,
             "resolution ", bits, " outside [1, ", params_.maxBits,
             "]");
    bits_ = bits;
}

double
SarAdc::totalCapF() const
{
    double sum = bridgeCapF_;
    for (unsigned i = 0; i < bits_; ++i)
        sum += capsF_[i];
    return sum;
}

std::uint32_t
SarAdc::convert(double v_in, Rng &rng)
{
    const double v = std::clamp(v_in, 0.0, vref());
    const double c_sigma = totalCapF();

    std::uint32_t code = 0;
    double dac_caps = 0.0; // capacitance currently switched to Vref
    for (unsigned i = bits_; i >= 1; --i) {
        const double trial_caps = dac_caps + capsF_[i - 1];
        const double v_dac = vref() * trial_caps / c_sigma;
        const Decision d = comparator_.compare(v, v_dac, rng);
        if (d.aGreater) {
            code |= 1u << (i - 1);
            dac_caps = trial_caps;
        }
    }

    // Array switching energy plus the comparator energy already
    // accounted inside the comparator; fold both into this ADC.
    energyJ_ += params_.switchingAlpha * c_sigma * vref() * vref();
    energyJ_ += comparator_.energyJ();
    comparator_.resetEnergy();
    return code;
}

std::array<double, SarAdc::kMaxResolution>
SarAdc::thresholds() const
{
    const double c_sigma = totalCapF();
    std::array<double, kMaxResolution> threshold{};
    for (unsigned i = 0; i < bits_; ++i)
        threshold[i] = vref() * capsF_[i] / c_sigma;
    return threshold;
}

void
SarAdc::accrueConversions(std::size_t conversions, std::size_t decisions,
                          std::size_t forced, double comparator_j)
{
    comparator_.accrue(decisions, forced, comparator_j);
    const double c_sigma = totalCapF();
    energyJ_ += static_cast<double>(conversions) *
                params_.switchingAlpha * c_sigma * vref() * vref();
    energyJ_ += comparator_.energyJ();
    comparator_.resetEnergy();
}

double
SarAdc::reconstruct(std::uint32_t code) const
{
    const double levels = std::ldexp(1.0, static_cast<int>(bits_));
    return vref() * (static_cast<double>(code) + 0.5) / levels;
}

double
SarAdc::energyPerConversion() const
{
    return params_.switchingAlpha * totalCapF() * vref() * vref() +
           static_cast<double>(bits_) * comparator_.nominalEnergy();
}

double
SarAdc::timePerConversion() const
{
    // One comparator decision per bit cycle plus a sampling phase of
    // the same order as one decision.
    return static_cast<double>(bits_ + 1) *
           params_.comparator.nominalTimeS / process_.speedFactor;
}

double
SarAdc::measureEnob(Rng &rng, std::size_t samples)
{
    fatal_if(samples == 0, "ENOB needs samples");
    // Uniform-ramp test: for a full-scale uniform input the ideal
    // n-bit quantizer achieves SNDR = 6.02 n dB, so ENOB =
    // SNDR / 6.02.
    double signal_power = 0.0;
    double error_power = 0.0;
    const double mean = vref() / 2.0;
    for (std::size_t k = 0; k < samples; ++k) {
        const double v = vref() * (static_cast<double>(k) + 0.5) /
                         static_cast<double>(samples);
        const std::uint32_t code = convert(v, rng);
        const double vq = reconstruct(code);
        signal_power += (v - mean) * (v - mean);
        error_power += (vq - v) * (vq - v);
    }
    if (error_power == 0.0)
        return static_cast<double>(bits_);
    const double sndr = 10.0 * std::log10(signal_power / error_power);
    return sndr / 6.0206;
}

} // namespace analog
} // namespace redeye
