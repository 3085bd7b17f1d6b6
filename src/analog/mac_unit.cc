#include "analog/mac_unit.hh"

#include <cmath>

#include "analog/capacitor.hh"
#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {

MacUnit::MacUnit(MacParams params, const ProcessParams &process)
    : params_(params), baseProcess_(process), process_(process),
      tunable_(params.weightBits, process),
      opAmp_(params.opAmp, process),
      feedbackCapF_(params.feedbackCapF)
{
    fatal_if(params_.inputs == 0, "MAC needs at least one input");
    fatal_if(params_.feedbackCapF <= 0.0,
             "feedback capacitance must be > 0");
}

void
MacUnit::setDampingCap(double cap_f)
{
    fatal_if(cap_f <= 0.0, "damping capacitance must be > 0");
    dampingCapF_ = cap_f;
    // Fidelity mode: scale every signal-path capacitor together so
    // that E and 1/Vn^2 both track the programmed capacitance.
    const double scale = cap_f / kAnchorDampingCapF;
    process_ = baseProcess_;
    process_.unitCapF = baseProcess_.unitCapF * scale;
    feedbackCapF_ = params_.feedbackCapF * scale;
    tunable_ = TunableCapacitor(params_.weightBits, process_);
}

void
MacUnit::setSnrDb(double snr_db)
{
    setDampingCap(dampingCapForSnr(snr_db));
}

double
MacUnit::ratedSnrDb() const
{
    return snrForDampingCap(dampingCapF_);
}

std::size_t
MacUnit::cycles(std::size_t taps) const
{
    return (taps + params_.inputs - 1) / params_.inputs;
}

double
MacUnit::multiplyAccumulate(const std::vector<double> &inputs,
                            const std::vector<int> &weights, Rng &rng)
{
    panic_if(inputs.size() != weights.size(),
             "MAC input/weight count mismatch: ", inputs.size(),
             " vs ", weights.size());
    fatal_if(inputs.empty(), "empty MAC window");

    const double load = feedbackCapF_ + dampingCapF_;

    // Weight application: charge domain, per tap.
    double acc = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        acc += tunable_.apply(inputs[i], weights[i], rng);

    // One op amp settle per accumulate cycle onto C_f + C_damp.
    const std::size_t n_cycles = cycles(inputs.size());
    double out = acc;
    for (std::size_t c = 0; c < n_cycles; ++c)
        out = opAmp_.settle(out, load, 1.0, rng);

    // Damping capacitor: kT/C thermal noise at the output, and its
    // charging energy.
    out += rng.gaussian(0.0, ktcNoiseRms(dampingCapF_, process_));
    const double damp_e = chargeEnergy(dampingCapF_,
                                       process_.signalSwing) *
                          static_cast<double>(n_cycles);

    energyJ_ += tunable_.energyJ() + opAmp_.energyJ() + damp_e;
    tunable_.resetEnergy();
    opAmp_.resetEnergy();
    return out;
}

double
MacUnit::energyPerWindow(std::size_t taps) const
{
    fatal_if(taps == 0, "empty MAC window");
    const double load = feedbackCapF_ + dampingCapF_;
    const double sample_e = tunable_.worstCaseEnergy() *
                            static_cast<double>(taps);
    const double n_cycles = static_cast<double>(cycles(taps));
    const double settle_e = opAmp_.settleEnergy(load) * n_cycles;
    const double damp_e = chargeEnergy(dampingCapF_,
                                       process_.signalSwing) *
                          n_cycles;
    return sample_e + settle_e + damp_e;
}

double
MacUnit::timePerWindow(std::size_t taps) const
{
    fatal_if(taps == 0, "empty MAC window");
    const double load = feedbackCapF_ + dampingCapF_;
    return opAmp_.settlingTime(load) *
           static_cast<double>(cycles(taps));
}

double
MacUnit::outputNoiseRms(std::size_t taps) const
{
    fatal_if(taps == 0, "empty MAC window");
    // Mid-scale weight for the sampling contribution.
    const int mid = tunable_.maxWeight() / 2;
    const double samp = tunable_.outputNoiseRms(mid);
    double var = samp * samp * static_cast<double>(taps);
    const double op = opAmp_.inputNoiseRms(feedbackCapF_ +
                                           dampingCapF_);
    var += op * op * static_cast<double>(cycles(taps));
    const double damp = ktcNoiseRms(dampingCapF_, process_);
    var += damp * damp;
    return std::sqrt(var);
}

double
MacUnit::systematicGain(std::size_t taps) const
{
    fatal_if(taps == 0, "empty MAC window");
    const double load = feedbackCapF_ + dampingCapF_;
    const double err = opAmp_.settlingError(opAmp_.settlingTime(load),
                                            load);
    return std::pow(1.0 - err,
                    static_cast<double>(cycles(taps)));
}

MacUnit::WindowStats
MacUnit::windowStats(std::size_t taps) const
{
    const double gain = systematicGain(taps);
    const double load = feedbackCapF_ + dampingCapF_;
    const double keep = 1.0 - opAmp_.settlingError(
                                  opAmp_.settlingTime(load), load);
    const double op = opAmp_.inputNoiseRms(load);
    double settle_var = 0.0;
    double atten = 1.0;
    for (std::size_t c = 0; c < cycles(taps); ++c) {
        settle_var += op * op * atten;
        atten *= keep * keep;
    }
    const double damp = ktcNoiseRms(dampingCapF_, process_);
    return {gain, settle_var + damp * damp};
}

void
MacUnit::accrueWindows(std::size_t windows, std::size_t taps,
                       std::uint64_t active_bits)
{
    fatal_if(taps == 0, "empty MAC window");
    const double load = feedbackCapF_ + dampingCapF_;
    const double settles = static_cast<double>(windows * cycles(taps));
    energyJ_ += static_cast<double>(active_bits) * tunable_.bitEnergy() +
                settles * (opAmp_.settleEnergy(load) +
                           chargeEnergy(dampingCapF_,
                                        process_.signalSwing));
}

void
MacUnit::resetEnergy()
{
    energyJ_ = 0.0;
    tunable_.resetEnergy();
    opAmp_.resetEnergy();
}

} // namespace analog
} // namespace redeye
