/**
 * @file
 * Charge-sharing tunable capacitor (Figure 5).
 *
 * Applies an n-bit digital weight to an analog sample. For each set
 * bit b_j the input is sampled onto an identical unit capacitor C_j
 * and its charge is then shared with (2^(n-j) - 1) grounded C_0
 * capacitors, dividing the contribution by 2^(n-j); combining the
 * groups yields the weighted signal.
 *
 * Compared to the naive binary-weighted array, which samples onto
 * O(2^n) unit capacitors, this design samples onto at most n unit
 * capacitors, cutting input capacitance and sampling energy by a
 * factor of 2^n / n (32x for the 8-bit MAC).
 */

#ifndef REDEYE_ANALOG_TUNABLE_CAP_HH
#define REDEYE_ANALOG_TUNABLE_CAP_HH

#include "analog/process.hh"

namespace redeye {

class Rng;

namespace analog {

/** n-bit charge-sharing weight multiplier. */
class TunableCapacitor
{
  public:
    /**
     * @param bits Weight magnitude bits (sign handled differentially).
     * @param process Process description (unit cap, supply, noise).
     */
    TunableCapacitor(unsigned bits, const ProcessParams &process);

    /** Weight magnitude bits. */
    unsigned bits() const { return bits_; }

    /** Largest representable magnitude, 2^bits - 1. */
    int maxWeight() const { return (1 << bits_) - 1; }

    /**
     * Ideal multiplicative gain for a signed weight:
     * w / 2^(bits-1), so full-scale weight ~= 2.
     */
    double gainFor(int weight) const;

    /**
     * Apply the weight to @p v_in, including per-bit sampling noise.
     * Accrues sampling energy for the active bits.
     */
    double apply(double v_in, int weight, Rng &rng);

    /** Output-referred RMS noise for a given weight. */
    double outputNoiseRms(int weight) const;

    /** Sampling energy of one apply() with this weight [J]. */
    double energyPerApply(int weight) const;

    /** Sampling energy of one set weight bit, C0 * Vdd^2 [J]. */
    double bitEnergy() const;

    /**
     * Worst-case (all bits set) sampling energy: n * C0 * Vdd^2.
     * The architecture-level energy model budgets this value.
     */
    double worstCaseEnergy() const;

    /**
     * Sampling energy of the naive binary-weighted design:
     * (2^n - 1) * C0 * Vdd^2 (for comparison benches).
     */
    double naiveDesignEnergy() const;

    /** Energy accrued so far [J]. */
    double energyJ() const { return energyJ_; }

    void resetEnergy() { energyJ_ = 0.0; }

  private:
    unsigned bits_;
    ProcessParams process_;
    double unitNoiseRms_;
    double energyJ_ = 0.0;
};

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_TUNABLE_CAP_HH
