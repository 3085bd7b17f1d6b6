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
 * DecisionLanes decides many in closed form, one comparator per SIMD
 * lane (DESIGN.md §15): noise is drawn, counter-keyed, only for a
 * decision it can change.
 */

#ifndef REDEYE_ANALOG_COMPARATOR_HH
#define REDEYE_ANALOG_COMPARATOR_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "analog/process.hh"
#include "core/lanes.hh"
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
 * One comparator's closed-form decisions (DESIGN.md §15): counts of
 * far decisions, exact ties and near ties, and the running product of
 * the far margins that prices their regeneration.
 */
struct DecisionTally {
    std::size_t far = 0;    ///< decisions outside the band
    std::size_t logged = 0; ///< ... with |delta| < swing
    double margins = 1.0;   ///< product of their |delta|, times
    int marginExp = 0;      ///< 2^marginExp
    std::size_t ties = 0;
    std::size_t tiesForced = 0;
    std::size_t near = 0;   ///< near ties
    std::size_t nearForced = 0;
    double nearJ = 0.0;     ///< their energy [J]

    std::size_t decisions() const { return far + ties + near; }

    std::size_t forced() const { return tiesForced + nearForced; }

    /**
     * Energy of the tallied decisions [J]: far ones at the noiseless
     * margin, with one log for the whole product, and ties at the
     * constants of @p k.
     */
    double energyJ(const DecisionConstants &k) const;
};

/**
 * One call's closed-form decisions on lanes::kWidth comparators at
 * once, one per lane (DESIGN.md §15, "Column lanes"). decide() takes
 * each lane's noiseless margin delta = a - b:
 *
 *  - |delta| > band: sign(delta), charged at the noiseless margin;
 *  - delta == 0, an exact tie: the noise alone decides, so the
 *    outcome is a fair coin; one keyed uniform sets the forced flag,
 *    and the energy is the tie constant's;
 *  - otherwise, a near tie: keyedGaussian(key, counter) supplies
 *    the noise, and settle() the rest, in a per-lane scalar step.
 *
 * Every draw of decision @p counter comes from the hash behind
 * keyedGaussian(key, counter), keyedBits(key, 2 counter), so it is a
 * pure function of the decision's own index. Each lane tallies its
 * own decisions in the order it is given them: a far decision's
 * margin joins the lane's running product, renormalized with frexp
 * after any factor takes it below 2^-512, so a lane takes one log
 * instead of one per decision. All lanes' comparators share
 * @p cmp's parameters.
 */
class DecisionLanes
{
  public:
    DecisionLanes(const DynamicComparator &cmp,
                  const DecisionConstants &k, std::uint64_t key)
        : cmp_(&cmp), k_(k), key_(key),
          tieForcedBelow_(static_cast<std::uint64_t>(
              std::ceil(k.tieForcedP * 0x1p53)))
    {
    }

    /**
     * Decide a > b, from the noiseless margins @p delta, in the lanes
     * of @p active; lane l is decision @p counter[l]. Sets
     * @p greater to the lanes that decide a > b. An exact tie's coin
     * is read only in the lanes of @p routes: elsewhere the caller
     * routes one value whichever way it goes, so the tie is tallied,
     * its lane of @p greater is 0, and the tie's hash stays off the
     * caller's routing.
     */
    void
    decide(const lanes::F64 &delta, const lanes::U64 &counter,
           const lanes::I64 &active, const lanes::I64 &routes,
           lanes::I64 &greater)
    {
        // |delta|: the sign bits cleared.
        const lanes::F64 mag =
            (lanes::F64)((lanes::I64)delta & 0x7fffffffffffffffLL);
        const lanes::I64 far = active & (mag > k_.band);
        const lanes::I64 tie = active & (delta == 0.0);
        const lanes::I64 near = active & ~far & ~tie;
        greater = far & (delta > 0.0);

        // Masks are -1 where set: subtracting one counts it.
        far_ -= far;
        const lanes::I64 logged = far & (mag < k_.swing);
        logged_ -= logged;
        const lanes::F64 one = lanes::F64{} + 1.0;
        margins_ *= logged ? mag : one;
        if (lanes::any(margins_ < 0x1p-512))
            renormalize();

        if (lanes::any(tie)) {
            // The top 53 bits set the forced flag, the low bit the
            // coin.
            lanes::U64 h = 2 * counter;
            lanes::keyedBits(key_, h);
            ties_ -= tie;
            tiesForced_ -= tie & ((h >> 11) < tieForcedBelow_);
            const lanes::I64 coin = tie & routes;
            if (lanes::any(coin))
                greater |= coin & -(lanes::I64)(h & 1);
        }
        if (lanes::any(near))
            decideNear(delta, counter, near, greater);
    }

    /** Lane @p lane's decisions so far. */
    DecisionTally tally(std::size_t lane) const;

  private:
    /** frexp the lanes whose product fell below 2^-512. */
    void renormalize();

    /** The near ties of @p near, lane by lane, into @p greater. */
    void decideNear(const lanes::F64 &delta, const lanes::U64 &counter,
                    const lanes::I64 &near, lanes::I64 &greater);

    lanes::I64 far_{};
    lanes::I64 logged_{};
    lanes::F64 margins_ = lanes::F64{} + 1.0;
    lanes::I64 marginExp_{};
    lanes::I64 ties_{};
    lanes::I64 tiesForced_{};
    lanes::I64 near_{};
    lanes::I64 nearForced_{};
    lanes::F64 nearJ_{};
    const DynamicComparator *cmp_;
    DecisionConstants k_;
    std::uint64_t key_;
    std::uint64_t tieForcedBelow_; ///< 53-bit draws below force a tie
};

} // namespace analog
} // namespace redeye

#endif // REDEYE_ANALOG_COMPARATOR_HH
