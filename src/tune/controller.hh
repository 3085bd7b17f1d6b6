/**
 * @file
 * Online operating-point auto-tuner.
 *
 * §VII situational scaling, closed-loop: instead of pinning the
 * SNR/ADC/depth operating point offline (sim/experiments.hh's
 * tuneNoiseParameters, the fleet's static QoS classes), the
 * AutoTuner moves it at runtime from streamed feedback. Each window:
 *
 *  1. **Observe** — completed frames fold (accuracy proxy, energy)
 *     into an order-independent FeedbackWindow (tune/feedback.hh).
 *  2. **Calibrate** — the window's mean proxy at the *known* current
 *     operating point is inverted through the proxy model
 *     (tune/scene.hh) into a scene-difficulty estimate. One
 *     observation window calibrates the whole surrogate.
 *  3. **Decide the mode** — the probe-visible suspect fraction is
 *     pushed through the same thresholds stream::planDegradation
 *     uses (DegradationPolicyConfig::bypassSuspectFraction), so
 *     fault-driven Remap/Bypass and scene-driven retuning are one
 *     decision path, not two fighting controllers. Under Bypass the
 *     analog knobs are moot and the operating point freezes.
 *  4. **Search** — a bounded, restart-capable Nelder-Mead simplex
 *     (sim/simplex.hh) minimizes predicted energy with a soft
 *     accuracy-floor penalty over the *surrogate* (no frames are
 *     spent probing candidates), then a discrete neighbor descent
 *     polishes the quantized result onto its lattice optimum.
 *  5. **Hysteresis** — switch only when the incumbent misses the
 *     accuracy target or the challenger saves at least kSwitchMargin
 *     (2%) of its energy; small predicted gains never flap the
 *     program.
 *
 * The simplex shape, iteration and restart budget, penalty weight
 * and switch margin are fixed in controller.cc.
 *
 * Determinism: step() is a pure function of (config, accumulated
 * window, suspect fraction, cost model) — the simplex restarts are
 * deterministic, the window sums are commutative integers, and no
 * wall clock or RNG is consulted. Two controllers fed the same
 * per-frame observations in any order produce byte-identical
 * decision traces (TuneDecision::str()).
 */

#ifndef REDEYE_TUNE_CONTROLLER_HH
#define REDEYE_TUNE_CONTROLLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/function_ref.hh"
#include "stream/degrade.hh"
#include "tune/feedback.hh"
#include "tune/op_model.hh"
#include "tune/operating_point.hh"
#include "tune/scene.hh"

namespace redeye {
namespace tune {

/** Controller knobs. */
struct AutoTuneConfig {
    /** Master switch (embedders skip every tuner code path when
     * off; a disabled run is bit-identical to a tuner-less one). */
    bool enabled = false;

    /** Minimum window samples before the operating point may move
     * (a starved window only re-evaluates the mode). */
    std::uint64_t windowFrames = 32;

    /** Virtual-time step period for embedders that step on a clock
     * (the fleet engine's TuneStep cadence). */
    double windowS = 1.0;

    /** Accuracy-proxy floor the tuner must hold. */
    double targetProxy = 0.9;

    OperatingPointBounds bounds;

    /** Starting operating point (clamped into bounds). */
    OperatingPoint initial;

    /** Accuracy-proxy calibration. */
    ProxyModel proxy;

    /** Shared fault-decision thresholds (bypassSuspectFraction,
     * adcBoostBits) — the same struct stream::planDegradation
     * consumes. */
    stream::DegradationPolicyConfig degrade;

    /** Record the full decision trace (tests/bench; the fleet's
     * steady state leaves it off). */
    bool trace = false;
};

/** One windowed decision, fully serializable for byte-identity
 * tests. */
struct TuneDecision {
    std::uint64_t step = 0;        ///< decision index
    OperatingPoint op;             ///< operating point after it
    stream::DegradeMode mode = stream::DegradeMode::Normal;
    bool switched = false;         ///< op changed this step
    std::uint64_t samples = 0;     ///< window observations consumed
    double observedProxy = 0.0;
    double observedEnergyJ = 0.0;
    double inferredDifficultyDb = 0.0;
    double predictedProxy = 0.0;   ///< surrogate at the chosen op
    double predictedEnergyJ = 0.0;
    std::size_t evaluations = 0;   ///< surrogate evaluations spent

    /** Canonical one-line serialization (trace comparison). */
    std::string str() const;
};

/** The per-client/per-scenario online tuner. */
class AutoTuner
{
  public:
    using CostFn =
        FunctionRef<OpCost(const OperatingPoint &,
                           stream::DegradeMode)>;

    explicit AutoTuner(const AutoTuneConfig &config);

    /** Fold one completed-frame observation into the open window.
     * Thread-safe, allocation-free (the data-plane half). */
    void
    observe(const FeedbackSample &sample)
    {
        window_.add(sample);
    }

    /**
     * Close the window and decide (the control-plane half): mode
     * from @p suspect_fraction through the shared degradation
     * thresholds, then — given at least windowFrames observations —
     * re-optimize the operating point against @p cost.
     * Deterministic; see the file header.
     */
    TuneDecision step(double suspect_fraction, CostFn cost);

    const OperatingPoint &op() const { return op_; }
    stream::DegradeMode mode() const { return mode_; }
    double difficultyDb() const { return difficultyDb_; }
    std::uint64_t steps() const { return steps_; }
    std::uint64_t switches() const { return switches_; }
    const FeedbackWindow &window() const { return window_; }
    const AutoTuneConfig &config() const { return config_; }

    /** Recorded decisions (empty unless config.trace). */
    const std::vector<TuneDecision> &trace() const { return trace_; }

  private:
    double surrogateObjective(const OperatingPoint &op,
                              stream::DegradeMode mode,
                              double suspect_fraction, CostFn cost,
                              double ref_energy_j,
                              std::size_t *evals) const;

    AutoTuneConfig config_;
    OperatingPoint op_;
    stream::DegradeMode mode_ = stream::DegradeMode::Normal;
    FeedbackWindow window_;
    double difficultyDb_ = 0.0; ///< current scene estimate
    std::uint64_t steps_ = 0;
    std::uint64_t switches_ = 0;
    std::vector<TuneDecision> trace_;
};

} // namespace tune
} // namespace redeye

#endif // REDEYE_TUNE_CONTROLLER_HH
