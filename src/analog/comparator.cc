#include "analog/comparator.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {

namespace {

/**
 * E[ln(1 / z) | z > z_m] for z = |n| / sigma, n ~ N(0, sigma), by
 * Simpson's rule in u = ln z, where the integrand u e^u phi(e^u) is
 * smooth. It is negligible above z = 40, and below u = -40 (z_m ~
 * 4e-18) its remainder is under 1e-15.
 */
double
meanLogInverseAbove(double z_m)
{
    constexpr int kIntervals = 128; // even
    const double lo = std::max(-40.0, std::log(z_m));
    const double hi = std::log(40.0);
    if (lo >= hi)
        return -hi;
    const double h = (hi - lo) / kIntervals;
    double sum = 0.0;
    for (int j = 0; j <= kIntervals; ++j) {
        const double u = lo + h * j;
        const double z = std::exp(u);
        const double f = u * z * std::exp(-0.5 * z * z);
        sum += f * (j == 0 || j == kIntervals ? 1 : (j % 2 ? 4 : 2));
    }
    // Normalizers cancel: both integrals carry phi's 1/sqrt(2 pi),
    // and the tail mass is erfc(z_m / sqrt 2) / 2 in those units.
    const double integral = sum * h / 3.0;
    const double tail = 0.5 * std::erfc(z_m / std::sqrt(2.0)) *
                        std::sqrt(2.0 * std::numbers::pi);
    return -integral / tail;
}

} // namespace

DynamicComparator::DynamicComparator(ComparatorParams params,
                                     const ProcessParams &process)
    : params_(params), process_(process)
{
    fatal_if(params_.nominalTimeS <= 0.0 || params_.regenTauS <= 0.0,
             "comparator timing must be positive");
    fatal_if(params_.timeoutS <= params_.nominalTimeS,
             "timeout must exceed the nominal decision time");
}

double
DynamicComparator::decisionTime(double delta_v) const
{
    const double swing = process_.signalSwing;
    const double mag = std::fabs(delta_v);
    if (mag >= swing)
        return params_.nominalTimeS;
    if (mag <= 0.0)
        return params_.timeoutS;
    const double tau = params_.regenTauS / process_.speedFactor;
    return params_.nominalTimeS + tau * std::log(swing / mag);
}

double
DynamicComparator::metastableDeltaV() const
{
    // Delta below which regeneration would exceed the timeout:
    // timeout = t0 + tau * ln(swing / delta).
    const double tau = params_.regenTauS / process_.speedFactor;
    return process_.signalSwing *
           std::exp(-(params_.timeoutS - params_.nominalTimeS) / tau);
}

double
DynamicComparator::nominalEnergy() const
{
    return params_.energyPerDecisionJ;
}

double
DynamicComparator::timeoutEnergy() const
{
    const double extra = params_.metastableCurrentA *
                         process_.supplyVoltage *
                         (params_.timeoutS - params_.nominalTimeS);
    return params_.energyPerDecisionJ + extra;
}

Decision
DynamicComparator::settle(double noisy_delta) const
{
    Decision d;
    const double t = decisionTime(noisy_delta);
    if (t >= params_.timeoutS) {
        // Forced arbitrary decision at the deadline.
        d.forced = true;
        d.timeS = params_.timeoutS;
        d.energyJ = timeoutEnergy();
    } else {
        d.timeS = t;
        const double extra = params_.metastableCurrentA *
                             process_.supplyVoltage *
                             (t - params_.nominalTimeS);
        d.energyJ = params_.energyPerDecisionJ + std::max(0.0, extra);
        d.aGreater = noisy_delta > 0.0;
    }
    return d;
}

Decision
DynamicComparator::compare(double a, double b, Rng &rng)
{
    Decision d = settle((a - b) + rng.gaussian(0.0,
                                               params_.inputNoiseRms));
    if (d.forced)
        d.aGreater = rng.bernoulli(0.5);
    accrue(1, d.forced ? 1 : 0, d.energyJ);
    return d;
}

DecisionConstants
DynamicComparator::decisionConstants() const
{
    const double sigma = params_.inputNoiseRms;
    const double m = metastableDeltaV();
    DecisionConstants k;
    k.band = m + 8.0 * sigma;
    k.swing = process_.signalSwing;
    k.forcedJ = timeoutEnergy();
    k.nominalJ = nominalEnergy();
    k.regenJ = params_.metastableCurrentA * process_.supplyVoltage *
               params_.regenTauS / process_.speedFactor;
    if (sigma > 0.0) {
        k.tieForcedP = std::erf(m / (sigma * std::sqrt(2.0)));
        k.tieJ = k.nominalJ +
                 k.regenJ * (std::log(k.swing / sigma) +
                             meanLogInverseAbove(m / sigma));
    } else {
        // A noiseless tie never regenerates.
        k.tieForcedP = 1.0;
        k.tieJ = k.forcedJ;
    }
    return k;
}

void
DynamicComparator::accrue(std::size_t decisions, std::size_t forced,
                          double energy_j)
{
    energyJ_ += energy_j;
    decisionCount_ += decisions;
    forcedCount_ += forced;
}

double
DecisionTally::energyJ(const DecisionConstants &k) const
{
    const double nepers =
        static_cast<double>(logged) * std::log(k.swing) -
        (std::log(margins) + marginExp * std::numbers::ln2);
    return static_cast<double>(far) * k.nominalJ + k.regenJ * nepers +
           static_cast<double>(tiesForced) * k.forcedJ +
           static_cast<double>(ties - tiesForced) * k.tieJ + nearJ;
}

DecisionTally
DecisionLanes::tally(std::size_t lane) const
{
    DecisionTally t;
    t.far = static_cast<std::size_t>(far_[lane]);
    t.logged = static_cast<std::size_t>(logged_[lane]);
    t.margins = margins_[lane];
    t.marginExp = static_cast<int>(marginExp_[lane]);
    t.ties = static_cast<std::size_t>(ties_[lane]);
    t.tiesForced = static_cast<std::size_t>(tiesForced_[lane]);
    t.near = static_cast<std::size_t>(near_[lane]);
    t.nearForced = static_cast<std::size_t>(nearForced_[lane]);
    t.nearJ = nearJ_[lane];
    return t;
}

void
DecisionLanes::renormalize()
{
    for (std::size_t l = 0; l < lanes::kWidth; ++l) {
        if (margins_[l] < 0x1p-512) {
            int e = 0;
            margins_[l] = std::frexp(margins_[l], &e);
            marginExp_[l] += e;
        }
    }
}

void
DecisionLanes::decideNear(const lanes::F64 &delta,
                          const lanes::U64 &counter,
                          const lanes::I64 &near, lanes::I64 &greater)
{
    for (std::size_t l = 0; l < lanes::kWidth; ++l) {
        if (!near[l])
            continue;
        Decision d = cmp_->settle(
            delta[l] +
            cmp_->params().inputNoiseRms * keyedGaussian(key_, counter[l]));
        if (d.forced) {
            // keyedGaussian reads the top 52 bits of this hash; the
            // coin is its low bit.
            d.aGreater = (keyedBits(key_, 2 * counter[l]) & 1) != 0;
            ++nearForced_[l];
        }
        ++near_[l];
        nearJ_[l] += d.energyJ;
        greater[l] = d.aGreater ? -1 : 0;
    }
}

} // namespace analog
} // namespace redeye
