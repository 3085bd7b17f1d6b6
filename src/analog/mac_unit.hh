/**
 * @file
 * Switched-capacitor mixed-signal multiply-accumulate unit (Figure 4).
 *
 * The MAC applies digital 8-bit weights to analog inputs through
 * charge-sharing tunable capacitors, accumulating the weighted charge
 * onto a feedback capacitor via an op amp; phi_rst clears C_f after
 * each kernel window. A programmable damping capacitor at the output
 * trades thermal noise for energy (Section IV-A).
 */

#ifndef REDEYE_ANALOG_MAC_UNIT_HH
#define REDEYE_ANALOG_MAC_UNIT_HH

#include <cstdint>
#include <vector>

#include "analog/noise_damping.hh"
#include "analog/opamp.hh"
#include "analog/process.hh"
#include "analog/tunable_cap.hh"

namespace redeye {

class Rng;

namespace analog {

/** MAC design parameters. */
struct MacParams {
    unsigned inputs = 8;      ///< parallel input channels
    unsigned weightBits = 8;  ///< tunable capacitor resolution
    double feedbackCapF = 20e-15; ///< accumulation capacitor C_f [F]
    OpAmpParams opAmp;        ///< accumulation amplifier
};

/** 8-input mixed-signal MAC. */
class MacUnit
{
  public:
    MacUnit(MacParams params, const ProcessParams &process);

    /**
     * Process one kernel window: out = sum_i w_i/2^(bits-1) * x_i,
     * with sampling noise, op amp noise, damping kT/C noise, and
     * settling error. Inputs beyond MacParams::inputs are processed
     * in additional accumulate cycles (more op amp settles).
     */
    double multiplyAccumulate(const std::vector<double> &inputs,
                              const std::vector<int> &weights,
                              Rng &rng);

    /**
     * Program the noise-damping capacitance [F]. The fidelity mode
     * scales every signal-path capacitor in the module (sampling
     * units, feedback, damping) by cap_f / 10 fF, so both energy and
     * inverse noise power scale linearly with the programmed value —
     * the Table I tradeoff.
     */
    void setDampingCap(double cap_f);

    /** Program the damping via an SNR target [dB]. */
    void setSnrDb(double snr_db);

    double dampingCapF() const { return dampingCapF_; }

    /** SNR the programmed damping cap is rated for [dB]. */
    double ratedSnrDb() const;

    /**
     * Analytic energy of one n-tap multiply-accumulate [J]: worst-
     * case weight sampling + op amp settling onto C_f + damping, +
     * damping-capacitor charging. Linear in the damping capacitance —
     * the E proportional-to C tradeoff.
     */
    double energyPerWindow(std::size_t taps) const;

    /** Analytic time for one n-tap window [s]. */
    double timePerWindow(std::size_t taps) const;

    /**
     * Analytic output-referred RMS noise of one n-tap window, for a
     * nominal mid-scale weight [V].
     */
    double outputNoiseRms(std::size_t taps) const;

    /**
     * Systematic gain of an n-tap window from finite op amp gain
     * and allotted settling: (1 - err)^cycles. Deterministic, so a
     * calibrated controller divides it out of the output scaling.
     */
    double systematicGain(std::size_t taps) const;

    /**
     * Closed-form statistics of multiplyAccumulate() on an n-tap
     * window. Its output is gain * acc + e, where acc is the sum of
     * the tap charges (each carrying its tunable capacitor's
     * sampling noise, variance tunableCap().outputNoiseRms(w)^2) and
     * e is zero-mean Gaussian noise of variance addedVar: one op amp
     * settle noise per cycle, attenuated by (1 - err) per later
     * cycle, plus the damping capacitor's kT/C.
     */
    struct WindowStats {
        double gain;     ///< systematicGain(taps)
        double addedVar; ///< settle + damping noise variance [V^2]
    };

    WindowStats windowStats(std::size_t taps) const;

    /**
     * Accrue the energy multiplyAccumulate() charges for @p windows
     * n-tap windows whose weights set @p active_bits capacitor bits
     * in total: the sampling, settling and damping charges of the
     * same operations, counted instead of replayed.
     */
    void accrueWindows(std::size_t windows, std::size_t taps,
                       std::uint64_t active_bits);

    /** Total energy accrued by multiplyAccumulate() calls [J]. */
    double energyJ() const { return energyJ_; }

    void resetEnergy();

    const MacParams &macParams() const { return params_; }

    const TunableCapacitor &tunableCap() const { return tunable_; }

    const OpAmp &opAmp() const { return opAmp_; }

  private:
    /** Accumulate cycles needed for @p taps inputs. */
    std::size_t cycles(std::size_t taps) const;

    MacParams params_;
    ProcessParams baseProcess_; ///< as constructed (unit cap at C0)
    ProcessParams process_;     ///< with fidelity-scaled unit cap
    TunableCapacitor tunable_;
    OpAmp opAmp_;
    double dampingCapF_ = kAnchorDampingCapF;
    double feedbackCapF_;
    double energyJ_ = 0.0;
};

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_MAC_UNIT_HH
