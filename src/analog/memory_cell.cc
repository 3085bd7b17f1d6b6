#include "analog/memory_cell.hh"

#include <cmath>

#include "analog/capacitor.hh"
#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {

AnalogMemoryCell::AnalogMemoryCell(MemoryCellParams params,
                                   const ProcessParams &process)
    : process_(process)
{
    setParams(params);
}

void
AnalogMemoryCell::setParams(MemoryCellParams params)
{
    fatal_if(params.holdCapF <= 0.0, "hold capacitance must be > 0");
    fatal_if(params.droopPerSecond < 0.0, "droop must be >= 0");
    params_ = params;
}

double
AnalogMemoryCell::writeEnergy() const
{
    return chargeEnergy(params_.holdCapF, process_.supplyVoltage);
}

double
AnalogMemoryCell::writeNoiseRms() const
{
    return ktcNoiseRms(params_.holdCapF, process_);
}

double
AnalogMemoryCell::droop(double held_seconds) const
{
    panic_if(held_seconds < 0.0, "negative hold time");
    return std::exp(-params_.droopPerSecond * held_seconds);
}

double
AnalogMemoryCell::readNoiseVar(double held_seconds) const
{
    const double w = writeNoiseRms() * droop(held_seconds);
    return w * w + params_.bufferNoiseRms * params_.bufferNoiseRms;
}

void
AnalogMemoryCell::accrueAccesses(std::size_t count)
{
    energyJ_ += static_cast<double>(count) *
                (writeEnergy() + readEnergy());
}

void
AnalogMemoryCell::write(double v, Rng &rng)
{
    held_ = v + rng.gaussian(0.0, writeNoiseRms());
    valid_ = true;
    energyJ_ += writeEnergy();
}

double
AnalogMemoryCell::read(Rng &rng, double held_seconds)
{
    panic_if(!valid_, "reading an unwritten analog memory cell");
    energyJ_ += params_.bufferEnergyJ;
    return held_ * droop(held_seconds) +
           rng.gaussian(0.0, params_.bufferNoiseRms);
}

} // namespace analog
} // namespace redeye
