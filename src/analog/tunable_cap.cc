#include "analog/tunable_cap.hh"

#include <bit>
#include <cmath>
#include <cstdlib>

#include "analog/capacitor.hh"
#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {

TunableCapacitor::TunableCapacitor(unsigned bits,
                                   const ProcessParams &process)
    : bits_(bits), process_(process),
      unitNoiseRms_(ktcNoiseRms(process.unitCapF, process))
{
    fatal_if(bits_ < 1 || bits_ > 16,
             "tunable capacitor bits must be in [1, 16], got ", bits_);
}

double
TunableCapacitor::gainFor(int weight) const
{
    fatal_if(std::abs(weight) > maxWeight(), "weight ", weight,
             " exceeds ", bits_, "-bit range");
    return static_cast<double>(weight) /
           static_cast<double>(1 << (bits_ - 1));
}

double
TunableCapacitor::apply(double v_in, int weight, Rng &rng)
{
    const double gain = gainFor(weight);
    double noise = 0.0;
    const unsigned mag = static_cast<unsigned>(std::abs(weight));
    for (unsigned j = 1; j <= bits_; ++j) {
        if (!(mag >> (j - 1) & 1u))
            continue;
        // Bit j's contribution is attenuated by 2^(bits-j); so is the
        // kT/C0 noise it sampled.
        const double atten =
            1.0 / static_cast<double>(1u << (bits_ - j));
        noise += rng.gaussian(0.0, unitNoiseRms_) * atten;
        energyJ_ += bitEnergy();
    }
    // Refer the noise to the same normalization as the gain (the
    // combine step divides by 2^(bits-1) full scale).
    noise /= 2.0;
    return v_in * gain + (weight < 0 ? -noise : noise);
}

double
TunableCapacitor::outputNoiseRms(int weight) const
{
    const unsigned mag = static_cast<unsigned>(std::abs(weight));
    double var = 0.0;
    for (unsigned j = 1; j <= bits_; ++j) {
        if (!(mag >> (j - 1) & 1u))
            continue;
        const double atten =
            1.0 / static_cast<double>(1u << (bits_ - j));
        var += unitNoiseRms_ * unitNoiseRms_ * atten * atten;
    }
    return std::sqrt(var) / 2.0;
}

double
TunableCapacitor::energyPerApply(int weight) const
{
    const unsigned mag = static_cast<unsigned>(std::abs(weight));
    const int active = std::popcount(mag);
    return static_cast<double>(active) * bitEnergy();
}

double
TunableCapacitor::bitEnergy() const
{
    return chargeEnergy(process_.unitCapF, process_.supplyVoltage);
}

double
TunableCapacitor::worstCaseEnergy() const
{
    return static_cast<double>(bits_) * bitEnergy();
}

double
TunableCapacitor::naiveDesignEnergy() const
{
    const double caps = static_cast<double>((1u << bits_) - 1);
    return caps * chargeEnergy(process_.unitCapF,
                               process_.supplyVoltage);
}

} // namespace analog
} // namespace redeye
