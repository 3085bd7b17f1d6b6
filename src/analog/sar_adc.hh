/**
 * @file
 * Successive Approximation Register ADC with variable resolution.
 *
 * The 10-bit SAR design (Section IV-A) achieves variable resolution
 * by skipping bit cycles and cutting the corresponding capacitors off
 * the array: dropping the MSB capacitor halves C_sigma and promotes
 * the next bit's weight to 1/2, conserving full-scale range.
 *
 * The model includes:
 *  - real successive-approximation search over a per-instance
 *    mismatched capacitor array (systematic INL/DNL),
 *  - comparator noise per bit cycle (random error), replayed per
 *    decision by convert() or, in a search in closed form on
 *    thresholds(), drawn only where it can change a bit
 *    (DESIGN.md §15),
 *  - array switching energy proportional to C_sigma = 2^n C0
 *    (the exponential energy-per-bit tradeoff of Section II-B),
 *  - ENOB measurement, used as the behavioral noise parameter
 *    ("we assume its noise contribution is identical to the
 *    quantization noise of an ideal m-bit ADC where m = ENOB").
 */

#ifndef REDEYE_ANALOG_SAR_ADC_HH
#define REDEYE_ANALOG_SAR_ADC_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analog/comparator.hh"
#include "analog/process.hh"

namespace redeye {

class Rng;

namespace analog {

/** SAR ADC design parameters. */
struct SarAdcParams {
    unsigned maxBits = 10;      ///< physical resolution
    double capMismatchSigma0 = 0.002; ///< unit cap relative mismatch
    double switchingAlpha = 1.0; ///< switching-energy factor of
                                 ///< C_sigma * Vref^2
    ComparatorParams comparator;
};

/** Variable-resolution SAR ADC. */
class SarAdc
{
  public:
    /** Highest supported physical resolution. */
    static constexpr unsigned kMaxResolution = 16;

    /**
     * @param rng Used once to draw this instance's capacitor
     * mismatch (a per-die systematic error).
     */
    SarAdc(SarAdcParams params, const ProcessParams &process, Rng &rng);

    /** Program the active resolution (1..maxBits). */
    void setResolution(unsigned bits);

    unsigned resolution() const { return bits_; }

    unsigned maxBits() const { return params_.maxBits; }

    /** Full-scale input range [0, vref]. */
    double vref() const { return process_.signalSwing; }

    /**
     * Convert @p v_in (clamped to [0, vref]) to a code in
     * [0, 2^bits). Accrues conversion energy.
     */
    std::uint32_t convert(double v_in, Rng &rng);

    /**
     * Thresholds of a search in closed form: entry i (0 = LSB, i <
     * resolution()) is vref C_i / C_sigma of this instance's
     * mismatched array. Bit i is decided on the noiseless input
     * against the sum of the thresholds of the bits already set, plus
     * its own.
     */
    std::array<double, kMaxResolution> thresholds() const;

    /**
     * Charge @p conversions conversions searched in closed form, whose
     * @p decisions bit decisions (@p forced of them forced) cost
     * @p comparator_j: the energy and counts of as many convert()
     * calls.
     */
    void accrueConversions(std::size_t conversions, std::size_t decisions,
                           std::size_t forced, double comparator_j);

    /** The comparator that makes this ADC's bit decisions. */
    const DynamicComparator &comparator() const { return comparator_; }

    /** Closed-form decision constants of this ADC's comparator. */
    DecisionConstants
    decisionConstants() const
    {
        return comparator_.decisionConstants();
    }

    /** Ideal mid-rise reconstruction of a code to volts. */
    double reconstruct(std::uint32_t code) const;

    /** Active array capacitance C_sigma at the current resolution. */
    double totalCapF() const;

    /** Analytic energy of one conversion at current resolution [J]. */
    double energyPerConversion() const;

    /** Analytic time of one conversion [s]. */
    double timePerConversion() const;

    /**
     * Measure effective number of bits through a uniform-ramp test
     * over @p samples conversions (SNDR-based).
     */
    double measureEnob(Rng &rng, std::size_t samples = 4096);

    /** Total energy accrued [J]. */
    double energyJ() const { return energyJ_; }

    void resetEnergy() { energyJ_ = 0.0; }

    /** Bit decisions forced by the comparator's timeout. */
    std::size_t forcedCount() const { return comparator_.forcedCount(); }

    /** Zero the comparator's decision and forced counts. */
    void resetCounts() { comparator_.resetCounts(); }

    const SarAdcParams &adcParams() const { return params_; }

  private:
    SarAdcParams params_;
    ProcessParams process_;
    DynamicComparator comparator_;
    unsigned bits_;
    std::vector<double> capsF_; ///< mismatched C_i, i = 1..maxBits
    double bridgeCapF_;         ///< terminating C0
    double energyJ_ = 0.0;
};

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_SAR_ADC_HH
