/**
 * @file
 * Analog memory cell.
 *
 * "As an analog pipeline must be constructed in stages ... analog
 * memory is indispensable for inter-stage buffers. Memory cells use
 * capacitors to maintain states, and thus exhibit energy-noise
 * tradeoffs upon reading and writing values" (Section II-B).
 *
 * The cell stores a voltage on a hold capacitor: a write samples the
 * input (kT/C noise, C*V^2 energy); a read buffers the held value
 * through a source follower (buffer noise, buffer energy); charge
 * leaks while held (droop per unit time).
 */

#ifndef REDEYE_ANALOG_MEMORY_CELL_HH
#define REDEYE_ANALOG_MEMORY_CELL_HH

#include <cstddef>

#include "analog/process.hh"

namespace redeye {

class Rng;

namespace analog {

/** Memory cell design parameters. */
struct MemoryCellParams {
    double holdCapF = 10e-15;      ///< storage capacitance [F]
    double bufferNoiseRms = 60e-6; ///< read buffer noise [V rms]
    double bufferEnergyJ = 30e-15; ///< read buffer energy [J]
    double droopPerSecond = 0.02;  ///< relative charge loss per second
};

/** A single analog storage cell. */
class AnalogMemoryCell
{
  public:
    AnalogMemoryCell(MemoryCellParams params,
                     const ProcessParams &process);

    /** Store @p v (kT/C write noise; accrues write energy). */
    void write(double v, Rng &rng);

    /**
     * Read the held value after @p held_seconds of droop (buffer
     * noise; accrues read energy).
     */
    double read(Rng &rng, double held_seconds = 0.0);

    /** True once write() has been called. */
    bool valid() const { return valid_; }

    /** Energy of one write [J]. */
    double writeEnergy() const;

    /** Energy of one read [J]. */
    double readEnergy() const { return params_.bufferEnergyJ; }

    /** RMS write (sampling) noise [V]. */
    double writeNoiseRms() const;

    /** Fraction of the held value left after @p held_seconds. */
    double droop(double held_seconds) const;

    /**
     * Variance of a read() after @p held_seconds about droop times
     * the written value: the write noise through the droop plus the
     * read buffer's noise [V^2].
     */
    double readNoiseVar(double held_seconds = 0.0) const;

    /**
     * Accrue the energy of @p count write-then-read accesses without
     * performing them (the closed-form conv engine's op-count path).
     */
    void accrueAccesses(std::size_t count);

    /** Reprogram the cell's design; accrued energy is kept. */
    void setParams(MemoryCellParams params);

    /** Total energy accrued [J]. */
    double energyJ() const { return energyJ_; }

    void resetEnergy() { energyJ_ = 0.0; }

    const MemoryCellParams &params() const { return params_; }

  private:
    MemoryCellParams params_;
    ProcessParams process_;
    double held_ = 0.0;
    bool valid_ = false;
    double energyJ_ = 0.0;
};

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_MEMORY_CELL_HH
