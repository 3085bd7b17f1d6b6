/**
 * @file
 * Fully dynamic comparator with metastability suppression.
 *
 * RedEye's max-pooling module uses a dynamic comparator with zero idle
 * power. When the input difference is small the regeneration time
 * grows logarithmically and the comparator burns maximum current; the
 * design "suppresses this effect by forcing arbitrary decisions when
 * the comparator fails to deliver a result in time" (Section IV-A).
 *
 * compare() replays one decision with its own sequential draws.
 * DecisionBatch decides many in closed form (DESIGN.md §15): noise is
 * drawn, counter-keyed, only for a decision it can change.
 */

#ifndef REDEYE_ANALOG_COMPARATOR_HH
#define REDEYE_ANALOG_COMPARATOR_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "analog/process.hh"
#include "core/rng.hh"

namespace redeye {

namespace analog {

/** Comparator design parameters. */
struct ComparatorParams {
    double inputNoiseRms = 100e-6; ///< input-referred noise [V rms]
    double nominalTimeS = 1e-9;    ///< decision time at full swing [s]
    double regenTauS = 0.22e-9;    ///< regeneration time constant [s]
    double timeoutS = 3e-9;        ///< forced-decision deadline [s];
                                   ///< places the metastable window
                                   ///< near the noise floor (~100 uV)
    double energyPerDecisionJ = 20e-15; ///< nominal decision energy [J]
    double metastableCurrentA = 50e-6;  ///< extra current while
                                        ///< regenerating [A]
};

/** Outcome of one comparison. */
struct Decision {
    bool aGreater = false; ///< decision: a > b
    double timeS = 0.0;    ///< time the decision took
    double energyJ = 0.0;  ///< energy it consumed
    bool forced = false;   ///< true if the timeout forced it
};

/**
 * Constants of closed-form decisions. A comparator computes them in
 * decisionConstants(); callers do so once per call, not per
 * comparator, because a device builds 64 comparators a frame.
 */
struct DecisionConstants {
    double band = 0.0;       ///< |margin| within which noise can
                             ///< matter: metastableDeltaV() + 8 sigma
    double swing = 0.0;      ///< signal swing [V]
    double tieForcedP = 0.0; ///< P(forced) of an exact tie
    double tieJ = 0.0;       ///< mean energy of an unforced exact tie
    double forcedJ = 0.0;    ///< energy of a forced decision
    double nominalJ = 0.0;   ///< energy of a full-swing decision
    double regenJ = 0.0;     ///< extra energy per neper of
                             ///< regeneration, I V tau [J]
};

/** Dynamic latch comparator. */
class DynamicComparator
{
  public:
    DynamicComparator(ComparatorParams params,
                      const ProcessParams &process);

    /**
     * Compare @p a and @p b. Adds input-referred noise; if the noisy
     * difference is so small that regeneration exceeds the timeout,
     * the decision is forced to a coin flip at maximum energy.
     */
    Decision compare(double a, double b, Rng &rng);

    /**
     * Regenerate from the noisy difference @p noisy_delta: time,
     * energy and the forced flag, with aGreater = noisy_delta > 0. A
     * forced decision's coin flip is the caller's.
     */
    Decision settle(double noisy_delta) const;

    /** Decision time for a given input difference (pre-timeout). */
    double decisionTime(double delta_v) const;

    /**
     * Input difference [V] below which regeneration exceeds the
     * timeout, so the decision is forced.
     */
    double metastableDeltaV() const;

    /** Nominal (full-swing) energy per decision [J]. */
    double nominalEnergy() const;

    /** Worst-case (timeout) energy per decision [J]. */
    double timeoutEnergy() const;

    /**
     * Band and tie constants of closed-form decisions. An exact tie
     * is forced with probability erf(m / (sigma sqrt 2)), m =
     * metastableDeltaV(); unforced, it costs the nominal energy plus
     * I V tau E[ln(swing / |n|) | |n| > m], n ~ N(0, sigma).
     */
    DecisionConstants decisionConstants() const;

    /**
     * Charge @p decisions decisions, @p forced of them forced, that
     * cost @p energy_j in all: compare()'s accounting for decisions
     * made in closed form.
     */
    void accrue(std::size_t decisions, std::size_t forced,
                double energy_j);

    const ComparatorParams &params() const { return params_; }

    /** Total energy accrued [J]. */
    double energyJ() const { return energyJ_; }

    /** Count of decisions forced by the timeout. */
    std::size_t forcedCount() const { return forcedCount_; }

    /** Total decisions made. */
    std::size_t decisionCount() const { return decisionCount_; }

    void resetEnergy() { energyJ_ = 0.0; }

    /** Zero the decision and forced counts. */
    void
    resetCounts()
    {
        forcedCount_ = 0;
        decisionCount_ = 0;
    }

  private:
    ComparatorParams params_;
    ProcessParams process_;
    double energyJ_ = 0.0;
    std::size_t forcedCount_ = 0;
    std::size_t decisionCount_ = 0;
};

/**
 * One call's closed-form decisions on one comparator (DESIGN.md §15).
 * decide() takes a decision's noiseless margin delta = a - b:
 *
 *  - |delta| > band: sign(delta), charged at the noiseless margin;
 *  - delta == 0, an exact tie: the noise alone decides, so the
 *    outcome is a fair coin; one keyed uniform sets the forced flag,
 *    and the energy is the tie constant's;
 *  - otherwise, a near tie: keyedGaussian(key, counter) supplies
 *    the noise, and settle() the rest.
 *
 * Every draw of decision @p counter comes from the hash behind
 * keyedGaussian(key, counter), keyedBits(key, 2 counter), so it is a
 * pure function of the decision's own index. A far decision's ln(swing / |delta|) joins
 * one running product of margins, renormalized with frexp, so a batch
 * takes one log instead of one per decision. accrue() charges the
 * comparator once.
 */
class DecisionBatch
{
  public:
    DecisionBatch(DynamicComparator &cmp, const DecisionConstants &k,
                  std::uint64_t key)
        : cmp_(&cmp), k_(k), key_(key),
          tieForcedBelow_(static_cast<std::uint64_t>(
              std::ceil(k.tieForcedP * 0x1p53)))
    {
    }

    /** Decide a > b from the noiseless margin @p delta = a - b. */
    bool
    decide(double delta, std::uint64_t counter)
    {
        const double mag = std::fabs(delta);
        if (mag > k_.band) {
            ++far_;
            if (mag < k_.swing) {
                margins_ *= mag;
                ++logged_;
                // Checked after every factor, the product never falls
                // below 2^-512 times one margin: far from underflow.
                if (margins_ < 0x1p-512)
                    renormalize();
            }
            return delta > 0.0;
        }
        if (delta == 0.0) {
            // The top 53 bits set the forced flag, the low bit the
            // coin.
            const std::uint64_t h = keyedBits(key_, 2 * counter);
            ++ties_;
            tiesForced_ += (h >> 11) < tieForcedBelow_;
            return (h & 1) != 0;
        }
        return decideNearTie(delta, counter);
    }

    /** Charge the tallied decisions to the comparator and clear. */
    void accrue();

  private:
    bool decideNearTie(double delta, std::uint64_t counter);

    void
    renormalize()
    {
        int e = 0;
        margins_ = std::frexp(margins_, &e);
        marginExp_ += e;
    }

    DynamicComparator *cmp_;
    DecisionConstants k_;
    std::uint64_t key_;
    std::uint64_t tieForcedBelow_; ///< 53-bit draws below force a tie
    std::size_t far_ = 0;     ///< decisions outside the band
    std::size_t logged_ = 0;  ///< ... with |delta| < swing
    double margins_ = 1.0;    ///< product of their |delta|, times
    int marginExp_ = 0;       ///< 2^marginExp_
    std::size_t ties_ = 0;
    std::size_t tiesForced_ = 0;
    std::size_t near_ = 0;    ///< near ties
    std::size_t nearForced_ = 0;
    double nearJ_ = 0.0;      ///< their energy [J]
};

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_COMPARATOR_HH
