#include "tune/controller.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/simplex.hh"

namespace redeye {
namespace tune {

namespace {

/** Neighbor-descent move budget; the lattice around any simplex
 * answer is small, this only guards pathological cost models. */
constexpr std::size_t kMaxPolishMoves = 64;

// Initial simplex steps over (snrDb, adcBits, depth).
constexpr double kSnrStepDb = 6.0;
constexpr double kAdcStepBits = 2.0;
constexpr double kDepthStep = 1.0;

/** Simplex iteration budget per restart, and restart count. */
constexpr std::size_t kSimplexIterations = 96;
constexpr std::size_t kSimplexRestarts = 2;

/** Soft accuracy-floor weight in the surrogate objective. */
constexpr double kPenaltyWeight = 2000.0;

/** Relative energy saving a challenger must predict before the
 * tuner switches a point that still meets the target. */
constexpr double kSwitchMargin = 0.02;

} // namespace

std::string
TuneDecision::str() const
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "step=%llu op=[%s] mode=%s switched=%d samples=%llu "
        "proxy=%.6f energyJ=%.6e difficulty=%.2f "
        "predProxy=%.6f predEnergyJ=%.6e evals=%zu",
        static_cast<unsigned long long>(step), op.str().c_str(),
        stream::degradeModeName(mode), switched ? 1 : 0,
        static_cast<unsigned long long>(samples), observedProxy,
        observedEnergyJ, inferredDifficultyDb, predictedProxy,
        predictedEnergyJ, evaluations);
    return std::string(buf);
}

AutoTuner::AutoTuner(const AutoTuneConfig &config)
    : config_(config), op_(config.bounds.clamp(config.initial))
{
}

double
AutoTuner::surrogateObjective(const OperatingPoint &op,
                              stream::DegradeMode mode,
                              double suspect_fraction, CostFn cost,
                              double ref_energy_j,
                              std::size_t *evals) const
{
    ++*evals;
    OpCost c = cost(op, mode);
    // Remap serves around dead columns by re-running the live ones;
    // the fleet stretches device energy by 1/(1-dead), mirror it so
    // the surrogate prices faults the way the floor pays them.
    if (mode == stream::DegradeMode::Remap) {
        const double dead = std::min(suspect_fraction, 0.95);
        c.energyJ /= 1.0 - dead;
    }
    const double predicted =
        accuracyProxy(op, difficultyDb_,
                      mode == stream::DegradeMode::Bypass,
                      config_.proxy);
    const double shortfall =
        std::max(0.0, config_.targetProxy - predicted);
    return c.energyJ / ref_energy_j +
           kPenaltyWeight * shortfall * shortfall;
}

TuneDecision
AutoTuner::step(double suspect_fraction, CostFn cost)
{
    TuneDecision d;
    d.step = steps_++;
    d.samples = window_.samples();
    d.observedProxy = window_.meanProxy();
    d.observedEnergyJ = window_.meanEnergyJ();

    // Mode first, through the exact thresholds planDegradation
    // applies to probe reports: enough suspects and remapping is
    // hopeless, any suspects and the ADC-boosted remap variant
    // serves, otherwise normal.
    if (suspect_fraction >= config_.degrade.bypassSuspectFraction)
        mode_ = stream::DegradeMode::Bypass;
    else if (suspect_fraction > 0.0)
        mode_ = stream::DegradeMode::Remap;
    else
        mode_ = stream::DegradeMode::Normal;
    d.mode = mode_;

    const bool starved = d.samples < config_.windowFrames;
    if (!starved) {
        const bool observed_bypassed =
            window_.bypassFraction() >= 0.5;
        difficultyDb_ = inferDifficultyDb(
            op_, d.observedProxy, observed_bypassed, config_.proxy);
    }
    d.inferredDifficultyDb = difficultyDb_;

    const bool bypass = mode_ == stream::DegradeMode::Bypass;
    if (starved || bypass) {
        // Starved: no calibration, hold. Bypass: the analog knobs
        // are out of the path; freeze the point so the pre-fault
        // program stays warm in the caches for recovery.
        d.op = op_;
        d.predictedProxy = accuracyProxy(op_, difficultyDb_, bypass,
                                         config_.proxy);
        d.predictedEnergyJ = cost(op_, mode_).energyJ;
        window_.reset();
        if (config_.trace)
            trace_.push_back(d);
        return d;
    }

    const double ref_energy_j =
        std::max(cost(op_, mode_).energyJ, 1e-15);
    std::size_t evals = 0;

    // Continuous surrogate search: simplex over (snr, bits, depth)
    // with the box handled inside the optimizer (sim/simplex.hh
    // clamps candidates before evaluation), candidates quantized to
    // the serving lattice so the objective only ever prices points
    // that can actually compile.
    sim::SimplexOptions options;
    options.maxIterations = kSimplexIterations;
    options.tolerance = 1e-7;
    options.restarts = kSimplexRestarts;
    options.xTolerance = 0.25;
    options.lower = {config_.bounds.snrLoDb,
                     static_cast<double>(config_.bounds.adcLoBits),
                     static_cast<double>(config_.bounds.depthLo)};
    options.upper = {config_.bounds.snrHiDb,
                     static_cast<double>(config_.bounds.adcHiBits),
                     static_cast<double>(config_.bounds.depthHi)};

    const auto objective = [&](const std::vector<double> &x) {
        return surrogateObjective(quantizePoint(x, config_.bounds),
                                  mode_, suspect_fraction, cost,
                                  ref_energy_j, &evals);
    };

    sim::SimplexResult sr =
        sim::nelderMead(objective, continuousPoint(op_),
                        {kSnrStepDb, kAdcStepBits, kDepthStep}, options);

    // Discrete polish: the simplex converges in the continuous
    // relaxation; greedy single-knob descent lands it on the
    // neighboring lattice optimum.
    OperatingPoint best = quantizePoint(sr.x, config_.bounds);
    double best_value = surrogateObjective(
        best, mode_, suspect_fraction, cost, ref_energy_j, &evals);
    for (std::size_t move = 0; move < kMaxPolishMoves; ++move) {
        OperatingPoint winner = best;
        double winner_value = best_value;
        const auto consider = [&](OperatingPoint candidate) {
            candidate = config_.bounds.clamp(candidate);
            if (candidate == best)
                return;
            const double value = surrogateObjective(
                candidate, mode_, suspect_fraction, cost,
                ref_energy_j, &evals);
            if (value < winner_value) {
                winner = candidate;
                winner_value = value;
            }
        };
        OperatingPoint c = best;
        c.snrDb = best.snrDb + kSnrGridDb;
        consider(c);
        c.snrDb = best.snrDb - kSnrGridDb;
        consider(c);
        c = best;
        c.adcBits = best.adcBits + 1;
        consider(c);
        if (best.adcBits > 0) {
            c.adcBits = best.adcBits - 1;
            consider(c);
        }
        c = best;
        c.depth = best.depth + 1;
        consider(c);
        if (best.depth > 1) {
            c.depth = best.depth - 1;
            consider(c);
        }
        if (!(winner_value < best_value))
            break;
        best = winner;
        best_value = winner_value;
    }

    // Hysteresis: keep the incumbent unless it misses the target or
    // the challenger's predicted saving clears the margin.
    const double incumbent_proxy =
        accuracyProxy(op_, difficultyDb_, false, config_.proxy);
    const double incumbent_energy =
        cost(op_, mode_).energyJ *
        (mode_ == stream::DegradeMode::Remap
             ? 1.0 / (1.0 - std::min(suspect_fraction, 0.95))
             : 1.0);
    const double challenger_energy =
        cost(best, mode_).energyJ *
        (mode_ == stream::DegradeMode::Remap
             ? 1.0 / (1.0 - std::min(suspect_fraction, 0.95))
             : 1.0);
    const bool incumbent_misses =
        incumbent_proxy < config_.targetProxy;
    const bool challenger_saves =
        challenger_energy < (1.0 - kSwitchMargin) * incumbent_energy;
    if (!(best == op_) && (incumbent_misses || challenger_saves)) {
        op_ = best;
        d.switched = true;
        ++switches_;
    }

    d.op = op_;
    d.predictedProxy =
        accuracyProxy(op_, difficultyDb_, false, config_.proxy);
    d.predictedEnergyJ = cost(op_, mode_).energyJ;
    d.evaluations = evals;
    window_.reset();
    if (config_.trace)
        trace_.push_back(d);
    return d;
}

} // namespace tune
} // namespace redeye
