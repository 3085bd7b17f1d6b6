/** @file Tests for the dynamic comparator with metastability forcing. */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "analog/comparator.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {
namespace {

DynamicComparator
makeComparator()
{
    return DynamicComparator(ComparatorParams{},
                             ProcessParams::typical());
}

TEST(ComparatorTest, LargeDifferencesDecidedCorrectly)
{
    auto cmp = makeComparator();
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(cmp.compare(0.5, 0.1, rng).aGreater);
        EXPECT_FALSE(cmp.compare(0.1, 0.5, rng).aGreater);
    }
    EXPECT_EQ(cmp.forcedCount(), 0u);
}

TEST(ComparatorTest, DecisionTimeGrowsAsInputsConverge)
{
    auto cmp = makeComparator();
    EXPECT_LT(cmp.decisionTime(0.5), cmp.decisionTime(0.01));
    EXPECT_LT(cmp.decisionTime(0.01), cmp.decisionTime(1e-5));
}

TEST(ComparatorTest, FullSwingAtNominalTime)
{
    auto cmp = makeComparator();
    EXPECT_DOUBLE_EQ(cmp.decisionTime(0.9),
                     cmp.params().nominalTimeS);
}

TEST(ComparatorTest, TinyDifferenceForcesArbitraryDecision)
{
    auto cmp = makeComparator();
    Rng rng(2);
    // Well below both the noise floor and the metastable threshold.
    std::size_t a_wins = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        const auto d = cmp.compare(0.5, 0.5, rng);
        a_wins += d.aGreater ? 1 : 0;
    }
    EXPECT_GT(cmp.forcedCount(), 0u);
    // Forced decisions are unbiased coin flips (noise may also
    // resolve some comparisons honestly, still ~50/50).
    EXPECT_NEAR(static_cast<double>(a_wins) / trials, 0.5, 0.05);
}

TEST(ComparatorTest, ForcedDecisionsCappedAtTimeout)
{
    auto cmp = makeComparator();
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const auto d = cmp.compare(0.5, 0.5, rng);
        EXPECT_LE(d.timeS, cmp.params().timeoutS + 1e-15);
    }
}

TEST(ComparatorTest, MetastableEnergyBounded)
{
    // The forcing mechanism bounds the worst-case energy; without it
    // the energy would grow without limit as inputs converge.
    auto cmp = makeComparator();
    Rng rng(4);
    for (int i = 0; i < 500; ++i) {
        const auto d = cmp.compare(0.5, 0.5 + 1e-9, rng);
        EXPECT_LE(d.energyJ, cmp.timeoutEnergy() + 1e-20);
        EXPECT_GE(d.energyJ, cmp.nominalEnergy() - 1e-20);
    }
}

TEST(ComparatorTest, EasyDecisionsCostNominalEnergy)
{
    auto cmp = makeComparator();
    Rng rng(5);
    const auto d = cmp.compare(0.9, 0.0, rng);
    EXPECT_NEAR(d.energyJ, cmp.nominalEnergy(),
                cmp.nominalEnergy() * 0.05);
}

TEST(ComparatorTest, MetastableThresholdConsistentWithTimeout)
{
    auto cmp = makeComparator();
    const double v = cmp.metastableDeltaV();
    EXPECT_NEAR(cmp.decisionTime(v), cmp.params().timeoutS,
                cmp.params().timeoutS * 1e-6);
}

TEST(ComparatorTest, CountsAccumulate)
{
    auto cmp = makeComparator();
    Rng rng(6);
    cmp.compare(0.4, 0.1, rng);
    cmp.compare(0.1, 0.4, rng);
    EXPECT_EQ(cmp.decisionCount(), 2u);
    EXPECT_GT(cmp.energyJ(), 0.0);
    cmp.resetEnergy();
    EXPECT_EQ(cmp.energyJ(), 0.0);
}

/** What n decisions at one noiseless margin realized. */
struct Outcomes {
    double aGreater = 0.0; ///< fraction decided a > b
    double forced = 0.0;   ///< fraction forced
    double meanJ = 0.0;    ///< mean energy [J]
};

/** @p n compare() calls at margin @p delta. */
Outcomes
replayed(const ProcessParams &process, double delta, int n,
         const ComparatorParams &params = {})
{
    DynamicComparator cmp(params, process);
    Rng rng(11);
    int greater = 0;
    for (int i = 0; i < n; ++i)
        greater += cmp.compare(0.5 + delta, 0.5, rng).aGreater;
    return {static_cast<double>(greater) / n,
            static_cast<double>(cmp.forcedCount()) / n,
            cmp.energyJ() / n};
}

/**
 * @p n closed-form decisions at margin @p delta, lane vector by lane
 * vector; decision i is counter i.
 */
Outcomes
closedForm(const ProcessParams &process, double delta, int n,
           const ComparatorParams &params = {})
{
    DynamicComparator cmp(params, process);
    const DecisionConstants k = cmp.decisionConstants();
    DecisionLanes decisions(cmp, k, 0xdec1de);
    const lanes::F64 margin = lanes::F64{} + delta;
    int greater = 0;
    for (int i = 0; i < n; i += static_cast<int>(lanes::kWidth)) {
        lanes::U64 counter{};
        for (std::size_t l = 0; l < lanes::kWidth; ++l)
            counter[l] = static_cast<std::uint64_t>(i) + l;
        const lanes::I64 active =
            lanes::kIndex < static_cast<std::size_t>(n - i);
        lanes::I64 g{};
        decisions.decide(margin, counter, active, active, g);
        for (std::size_t l = 0; l < lanes::kWidth; ++l)
            greater += g[l] != 0;
    }
    for (std::size_t l = 0; l < lanes::kWidth; ++l) {
        const DecisionTally t = decisions.tally(l);
        cmp.accrue(t.decisions(), t.forced(), t.energyJ(k));
    }
    EXPECT_EQ(cmp.decisionCount(), static_cast<std::size_t>(n));
    return {static_cast<double>(greater) / n,
            static_cast<double>(cmp.forcedCount()) / n,
            cmp.energyJ() / n};
}

/**
 * Four binomial sigmas of the difference of two n-trial rates, plus
 * two trials of slack for rates near 0 or 1.
 */
double
rateBound(double p, int n)
{
    return 4.0 * std::sqrt(2.0 * p * (1.0 - p) / n) + 2.0 / n;
}

class ClosedFormDecisionTest : public ::testing::TestWithParam<Corner>
{
  protected:
    ProcessParams
    process() const
    {
        return ProcessParams::atCorner(GetParam());
    }
};

/**
 * Exact ties: as often forced as compare(0, 0), fair coins, and the
 * same mean energy.
 */
TEST_P(ClosedFormDecisionTest, TiesMatchCompare)
{
    constexpr int kTies = 100000;
    const Outcomes want = replayed(process(), 0.0, kTies);
    const Outcomes got = closedForm(process(), 0.0, kTies);
    EXPECT_NEAR(got.forced, want.forced, rateBound(want.forced, kTies));
    EXPECT_NEAR(got.aGreater, 0.5, rateBound(0.5, kTies));
    EXPECT_NEAR(got.meanJ, want.meanJ, 0.01 * want.meanJ);

    DynamicComparator cmp(ComparatorParams{}, process());
    const DecisionConstants k = cmp.decisionConstants();
    const double m = cmp.metastableDeltaV();
    const double sigma = cmp.params().inputNoiseRms;
    EXPECT_NEAR(k.tieForcedP, std::erf(m / (sigma * std::sqrt(2.0))),
                1e-12);
    EXPECT_NEAR(got.forced, k.tieForcedP, rateBound(k.tieForcedP, kTies));
}

/**
 * At delta = sigma the decision flips when the noise crosses -sigma,
 * and a forced one is a coin: the flip rate is
 * (Phi(-1 - m/sigma) + Phi(m/sigma - 1)) / 2, Phi(-1) as m -> 0.
 */
TEST_P(ClosedFormDecisionTest, FlipRateAtOneSigma)
{
    constexpr int kTrials = 100000;
    const auto phi = [](double z) {
        return 0.5 * std::erfc(-z / std::sqrt(2.0));
    };
    DynamicComparator cmp(ComparatorParams{}, process());
    const double sigma = cmp.params().inputNoiseRms;
    const double z = cmp.metastableDeltaV() / sigma;
    const double expected = 0.5 * (phi(-1.0 - z) + phi(z - 1.0));
    // Forced when the noise lands the margin within m of zero. The
    // bound takes this rate, not the replay's sample of it: at SS the
    // replay may force every decision, and a bound computed from a
    // sampled rate of exactly 1 keeps only the slack.
    const double forced = phi(z - 1.0) - phi(-z - 1.0);

    const Outcomes got = closedForm(process(), sigma, kTrials);
    const Outcomes want = replayed(process(), sigma, kTrials);
    EXPECT_NEAR(1.0 - got.aGreater, expected, rateBound(expected, kTrials));
    EXPECT_NEAR(got.aGreater, want.aGreater, rateBound(expected, kTrials));
    EXPECT_NEAR(got.forced, want.forced, rateBound(forced, kTrials));

    // Without a metastable window the flips are the noise's alone.
    ComparatorParams patient;
    patient.timeoutS = 20e-9;
    const Outcomes noise_only =
        closedForm(process(), sigma, kTrials, patient);
    EXPECT_NEAR(1.0 - noise_only.aGreater, phi(-1.0),
                rateBound(phi(-1.0), kTrials));
    EXPECT_EQ(noise_only.forced, 0.0);
}

/**
 * Outside the band a decision is sign(delta) at the energy compare()
 * charges for the noiseless margin, and at compare()'s mean energy.
 */
TEST_P(ClosedFormDecisionTest, FarDecisionsMatchNoiselessCompare)
{
    ComparatorParams noiseless;
    noiseless.inputNoiseRms = 0.0;
    const double band =
        DynamicComparator(ComparatorParams{}, process())
            .decisionConstants()
            .band;
    for (double delta : {2.0 * band, 0.01, 0.2, 1.5}) {
        for (double sign : {1.0, -1.0}) {
            const Outcomes got = closedForm(process(), sign * delta, 64);
            const Outcomes exact =
                replayed(process(), sign * delta, 1, noiseless);
            EXPECT_EQ(got.aGreater, sign > 0 ? 1.0 : 0.0) << delta;
            EXPECT_EQ(got.forced, 0.0) << delta;
            EXPECT_NEAR(got.meanJ, exact.meanJ, 1e-3 * exact.meanJ)
                << delta;
            const Outcomes noisy =
                replayed(process(), sign * delta, 10000);
            EXPECT_EQ(noisy.aGreater, got.aGreater) << delta;
            EXPECT_NEAR(got.meanJ, noisy.meanJ, 1e-3 * noisy.meanJ)
                << delta;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Corners, ClosedFormDecisionTest,
                         ::testing::Values(Corner::TT, Corner::SS,
                                           Corner::FF),
                         [](const auto &info) {
                             return info.param == Corner::TT   ? "TT"
                                    : info.param == Corner::SS ? "SS"
                                                               : "FF";
                         });

TEST(ComparatorTest, ResetEnergyKeepsCounts)
{
    // A SAR zeroes its comparator's energy after every conversion;
    // the counts must survive that and clear only on resetCounts().
    auto cmp = makeComparator();
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        cmp.compare(0.5, 0.5, rng);
    const std::size_t forced = cmp.forcedCount();
    ASSERT_GT(forced, 0u);
    cmp.resetEnergy();
    EXPECT_EQ(cmp.forcedCount(), forced);
    EXPECT_EQ(cmp.decisionCount(), 100u);
    cmp.resetCounts();
    EXPECT_EQ(cmp.forcedCount(), 0u);
    EXPECT_EQ(cmp.decisionCount(), 0u);
}

TEST(ComparatorTest, InvalidTimingFatal)
{
    ComparatorParams p;
    p.timeoutS = p.nominalTimeS; // timeout must exceed nominal
    EXPECT_EXIT(DynamicComparator(p, ProcessParams::typical()),
                ::testing::ExitedWithCode(1), "timeout");
}

} // namespace
} // namespace analog
} // namespace redeye
