/** @file Tests for the variable-resolution SAR ADC. */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "analog/sar_adc.hh"
#include "core/rng.hh"

namespace redeye {
namespace analog {
namespace {

SarAdc
makeAdc(std::uint64_t seed = 1, double mismatch = 0.002)
{
    SarAdcParams p;
    p.capMismatchSigma0 = mismatch;
    Rng rng(seed);
    return SarAdc(p, ProcessParams::typical(), rng);
}

/**
 * Convert @p volts in closed form as the column array's readout does:
 * a search on the ADC's thresholds through a lane tally, eight inputs
 * per vector, with bit b of input j decision 16 j + b under @p key;
 * then charge the ADC.
 */
std::vector<std::uint32_t>
convertInLanes(SarAdc &adc, const std::vector<double> &volts,
               std::uint64_t key)
{
    const DecisionConstants k = adc.decisionConstants();
    const auto threshold = adc.thresholds();
    DecisionLanes decisions(adc.comparator(), k, key);
    std::vector<std::uint32_t> codes(volts.size());
    for (std::size_t j = 0; j < volts.size(); j += lanes::kWidth) {
        const std::size_t m = std::min(lanes::kWidth, volts.size() - j);
        const lanes::I64 active = lanes::kIndex < m;
        lanes::F64 v{};
        lanes::U64 base{};
        for (std::size_t l = 0; l < lanes::kWidth; ++l) {
            base[l] = (j + l) * SarAdc::kMaxResolution;
            if (l < m)
                v[l] = std::clamp(volts[j + l], 0.0, adc.vref());
        }
        lanes::U64 code{};
        lanes::F64 dac{};
        for (unsigned b = adc.resolution(); b-- > 0;) {
            const lanes::F64 trial = dac + threshold[b];
            lanes::I64 greater{};
            decisions.decide(v - trial, base + b, active, active, greater);
            code |= (lanes::U64)greater & (1ull << b);
            dac = greater ? trial : dac;
        }
        for (std::size_t l = 0; l < m; ++l)
            codes[j + l] = static_cast<std::uint32_t>(code[l]);
    }
    std::size_t decided = 0;
    std::size_t forced = 0;
    double energy = 0.0;
    for (std::size_t l = 0; l < lanes::kWidth; ++l) {
        const DecisionTally t = decisions.tally(l);
        decided += t.decisions();
        forced += t.forced();
        energy += t.energyJ(k);
    }
    adc.accrueConversions(volts.size(), decided, forced, energy);
    return codes;
}

TEST(SarAdcTest, RampProducesMonotonicCodes)
{
    auto adc = makeAdc();
    adc.setResolution(8);
    Rng rng(2);
    std::uint32_t prev = 0;
    for (int i = 0; i <= 100; ++i) {
        const double v = adc.vref() * i / 100.0;
        const auto code = adc.convert(v, rng);
        // Allow +-1 code of comparator-noise wiggle.
        EXPECT_GE(code + 1, prev);
        prev = std::max(prev, code);
    }
    EXPECT_GT(prev, 250u);
}

TEST(SarAdcTest, ReconstructionErrorWithinLsb)
{
    auto adc = makeAdc();
    adc.setResolution(10);
    Rng rng(3);
    const double lsb = adc.vref() / 1024.0;
    for (int i = 0; i < 200; ++i) {
        const double v = adc.vref() * (i + 0.5) / 200.0;
        const double vq = adc.reconstruct(adc.convert(v, rng));
        EXPECT_NEAR(vq, v, 2.5 * lsb);
    }
}

TEST(SarAdcTest, OutOfRangeInputsClamped)
{
    auto adc = makeAdc();
    adc.setResolution(6);
    Rng rng(4);
    EXPECT_EQ(adc.convert(-1.0, rng), 0u);
    EXPECT_EQ(adc.convert(10.0, rng), 63u);
}

TEST(SarAdcTest, ResolutionConservesFullScale)
{
    // Cutting the MSB capacitor halves C_sigma but the remaining MSB
    // weight is promoted to 1/2: full scale is conserved at every
    // resolution.
    auto adc = makeAdc();
    Rng rng(5);
    for (unsigned bits = 2; bits <= 10; ++bits) {
        adc.setResolution(bits);
        const double top = adc.reconstruct(
            adc.convert(adc.vref() * 0.999, rng));
        // Mid-rise reconstruction tops out at
        // vref * (1 - 1/2^(bits+1)); allow one LSB of slack.
        const double floor_v = adc.vref() *
                               (1.0 - 1.5 / std::ldexp(1.0, bits));
        EXPECT_GT(top, floor_v) << "resolution " << bits;
    }
}

TEST(SarAdcTest, HalvingResolutionHalvesArrayCap)
{
    auto adc = makeAdc(1, 0.0);
    adc.setResolution(10);
    const double c10 = adc.totalCapF();
    adc.setResolution(9);
    const double c9 = adc.totalCapF();
    // C_sigma(10) = 1024 C0 + C0; dropping C10 removes 512 C0.
    EXPECT_NEAR((c10 - c9) / c10, 512.0 / 1025.0, 1e-3);
}

TEST(SarAdcTest, EnergyDoublesPerBit)
{
    auto adc = makeAdc(1, 0.0);
    adc.setResolution(10);
    const double e10 = adc.energyPerConversion();
    adc.setResolution(4);
    const double e4 = adc.energyPerConversion();
    // Switching energy dominated by the array: ~2^6 ratio.
    EXPECT_GT(e10 / e4, 30.0);
    EXPECT_LT(e10 / e4, 70.0);
}

TEST(SarAdcTest, EnobNearNominalForSmallMismatch)
{
    auto adc = makeAdc(6, 0.001);
    adc.setResolution(8);
    Rng rng(7);
    const double enob = adc.measureEnob(rng, 4096);
    EXPECT_GT(enob, 6.5);
    EXPECT_LE(enob, 8.2);
}

TEST(SarAdcTest, MismatchDegradesEnob)
{
    auto good = makeAdc(8, 0.0005);
    auto bad = makeAdc(8, 0.05);
    good.setResolution(10);
    bad.setResolution(10);
    Rng rng(9);
    const double e_good = good.measureEnob(rng, 4096);
    const double e_bad = bad.measureEnob(rng, 4096);
    EXPECT_GT(e_good, e_bad + 0.5);
}

TEST(SarAdcTest, LowResolutionEnobTracksBits)
{
    auto adc = makeAdc(10);
    Rng rng(11);
    adc.setResolution(4);
    const double enob4 = adc.measureEnob(rng, 4096);
    EXPECT_NEAR(enob4, 4.0, 0.5);
}

TEST(SarAdcTest, TimeGrowsWithResolution)
{
    auto adc = makeAdc();
    adc.setResolution(10);
    const double t10 = adc.timePerConversion();
    adc.setResolution(4);
    const double t4 = adc.timePerConversion();
    EXPECT_NEAR(t10 / t4, 11.0 / 5.0, 1e-9);
}

TEST(SarAdcTest, ConversionAccruesEnergy)
{
    auto adc = makeAdc();
    adc.setResolution(6);
    Rng rng(12);
    adc.resetEnergy();
    adc.convert(0.3, rng);
    EXPECT_GT(adc.energyJ(), 0.0);
}

/**
 * Away from every threshold (code centres at 4 and 6 bits) the keyed
 * search returns convert()'s codes, at its energy and decision count.
 */
TEST(SarAdcTest, KeyedConversionMatchesConvertAwayFromThresholds)
{
    for (unsigned bits : {4u, 6u}) {
        auto keyed = makeAdc(13);
        auto replay = makeAdc(13);
        keyed.setResolution(bits);
        replay.setResolution(bits);
        const std::size_t levels = std::size_t{1} << bits;
        std::vector<double> volts;
        for (std::size_t rep = 0; rep < 8; ++rep) {
            for (std::size_t c = 0; c < levels; ++c) {
                volts.push_back(keyed.vref() *
                                (static_cast<double>(c) + 0.5) /
                                static_cast<double>(levels));
            }
        }
        const std::vector<std::uint32_t> codes =
            convertInLanes(keyed, volts, 0x5a4);
        Rng rng(14);
        for (std::size_t j = 0; j < volts.size(); ++j) {
            EXPECT_EQ(codes[j], j % levels) << bits << " bits";
            EXPECT_EQ(codes[j], replay.convert(volts[j], rng))
                << bits << " bits";
        }
        EXPECT_NEAR(keyed.energyJ(), replay.energyJ(),
                    1e-3 * replay.energyJ());
        EXPECT_EQ(keyed.forcedCount(), 0u);
    }
}

/**
 * An input on the MSB threshold ties its first decision: the keyed
 * search forces it as often as convert() does, counts it, and splits
 * the MSB evenly.
 */
TEST(SarAdcTest, KeyedTieForcesLikeConvert)
{
    constexpr std::size_t kInputs = 20000;
    auto keyed = makeAdc(15, 0.0);
    auto replay = makeAdc(15, 0.0);
    keyed.setResolution(4);
    replay.setResolution(4);
    const std::vector<double> volts(kInputs, keyed.vref() / 2.0);
    const std::vector<std::uint32_t> codes =
        convertInLanes(keyed, volts, 0x71e);
    Rng rng(16);
    std::size_t msb = 0;
    for (std::size_t j = 0; j < kInputs; ++j) {
        replay.convert(volts[j], rng);
        msb += codes[j] >> 3;
    }
    const double got = static_cast<double>(keyed.forcedCount()) / kInputs;
    const double want =
        static_cast<double>(replay.forcedCount()) / kInputs;
    ASSERT_GT(want, 0.1);
    const double bound =
        4.0 * std::sqrt(2.0 * want * (1.0 - want) / kInputs);
    EXPECT_NEAR(got, want, bound);
    EXPECT_NEAR(static_cast<double>(msb) / kInputs, 0.5,
                4.0 * std::sqrt(0.25 / kInputs));
    keyed.resetCounts();
    EXPECT_EQ(keyed.forcedCount(), 0u);
}

TEST(SarAdcTest, InvalidResolutionFatal)
{
    auto adc = makeAdc();
    EXPECT_EXIT(adc.setResolution(0), ::testing::ExitedWithCode(1),
                "resolution");
    EXPECT_EXIT(adc.setResolution(11), ::testing::ExitedWithCode(1),
                "resolution");
}

} // namespace
} // namespace analog
} // namespace redeye
