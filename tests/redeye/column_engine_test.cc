/**
 * @file
 * Tests of the closed-form conv engine (ColumnArray::runConvolution)
 * against the per-tap oracle (runConvolutionReference): every
 * conv-side fault kind, the keyed noise, energy and reprogramming.
 */

#include <cmath>
#include <functional>
#include <utility>

#include <gtest/gtest.h>

#include "fault/fault_model.hh"
#include "nn/conv.hh"
#include "redeye/column.hh"

namespace redeye {
namespace arch {
namespace {

constexpr std::size_t kColumns = 16;
constexpr std::size_t kHalfWindow = 2; ///< 5x5 kernel, pad 2

ColumnArray
makeArray(double snr, std::uint64_t seed = 0xc01)
{
    ColumnArrayConfig cfg;
    cfg.columns = kColumns;
    cfg.convSnrDb = snr;
    return ColumnArray(cfg, analog::ProcessParams::typical(),
                       Rng(seed));
}

/**
 * A 3-channel 5x5 conv with biases over a 6 x kColumns frame: each
 * window spans five columns, and the edge windows read padding.
 */
struct Workload {
    nn::ConvolutionLayer conv{"c", nn::ConvParams::square(4, 5, 1, 2)};
    Tensor x{Shape(1, 3, 6, kColumns)};

    Workload()
    {
        Rng rng(1);
        Rng pixels(2);
        x.fillUniform(pixels, 0.0f, 1.0f);
        (void)conv.outputShape({x.shape()});
        conv.initHe(rng);
        for (std::size_t oc = 0; oc < conv.biases().size(); ++oc)
            conv.biases()[oc] = 0.1f * static_cast<float>(oc) - 0.15f;
    }

    Tensor
    run(ColumnArray &array)
    {
        return array.runConvolution(x, conv, false);
    }

    Tensor
    runReference(ColumnArray &array)
    {
        return array.runConvolutionReference(x, conv, false);
    }
};

double
convJ(const ColumnArray &array)
{
    const EnergyBreakdown e = array.energy();
    return e.macJ + e.memoryJ;
}

/**
 * A campaign whose realization has exactly one faulty column, with
 * faults matching @p wanted (scans seeds); returns it and the column.
 */
std::pair<fault::FaultCampaign, std::size_t>
singleFault(fault::FaultCampaign c,
            const std::function<bool(const fault::ColumnFaults &)>
                &wanted)
{
    for (std::uint64_t seed = 1; seed < 2000; ++seed) {
        c.seed = seed;
        fault::FaultModel m(c, kColumns);
        if (m.faultyColumnCount() != 1)
            continue;
        for (std::size_t col = 0; col < kColumns; ++col) {
            if (m.column(col).any() && wanted(m.column(col)))
                return {c, col};
        }
    }
    ADD_FAILURE() << "no seed realizes the wanted fault";
    return {c, kColumns};
}

/**
 * The fault case every kind shares. Armed, the closed form must agree
 * with the per-tap oracle at 70 dB (where noise is far below the
 * fault's effect) and charge the same energy; outputs whose windows
 * the fault cannot reach (|ox - column| > @p reach) must stay
 * bit-identical to an unarmed run, and the rest must move.
 */
void
checkFault(const fault::FaultCampaign &campaign, std::size_t column,
           std::size_t reach)
{
    ASSERT_LT(column, kColumns);
    fault::FaultModel model(campaign, kColumns);
    Workload w;

    auto plain = makeArray(70.0);
    auto armed = makeArray(70.0);
    auto oracle = makeArray(70.0);
    armed.armFaults(&model, 0);
    oracle.armFaults(&model, 0);
    const Tensor clean = w.run(plain);
    const Tensor got = w.run(armed);
    const Tensor want = w.runReference(oracle);

    const double scale = want.absMax();
    ASSERT_GT(scale, 0.0);
    const Shape &s = got.shape();
    double moved = 0.0;
    for (std::size_t oc = 0; oc < s.c; ++oc) {
        for (std::size_t oy = 0; oy < s.h; ++oy) {
            for (std::size_t ox = 0; ox < s.w; ++ox) {
                const float g = got.at(0, oc, oy, ox);
                EXPECT_NEAR(g, want.at(0, oc, oy, ox), 5e-3 * scale)
                    << "oc " << oc << " oy " << oy << " ox " << ox;
                const std::size_t dist =
                    ox > column ? ox - column : column - ox;
                if (dist > reach) {
                    ASSERT_EQ(g, clean.at(0, oc, oy, ox))
                        << "unreached output (" << oc << ", " << oy
                        << ", " << ox << ") moved";
                } else {
                    moved = std::max(
                        moved, std::fabs(static_cast<double>(
                                   g - clean.at(0, oc, oy, ox))));
                }
            }
        }
    }
    EXPECT_GT(moved, 0.01 * scale) << "the fault left no mark";
    EXPECT_NEAR(convJ(armed), convJ(oracle), 1e-9 * convJ(oracle));
}

TEST(ColumnEngineTest, StuckWeightBitHighMatchesReference)
{
    fault::FaultCampaign c;
    c.stuckWeightBitRate = 0.1;
    const auto [campaign, column] =
        singleFault(c, [](const fault::ColumnFaults &f) {
            return f.weightStuckHigh && f.weightStuckBit >= 4;
        });
    checkFault(campaign, column, 0);
}

TEST(ColumnEngineTest, StuckWeightBitLowMatchesReference)
{
    // Quantized magnitudes stay below 2^7: a low stuck bit must be
    // one the kernel uses to change anything.
    fault::FaultCampaign c;
    c.stuckWeightBitRate = 0.1;
    const auto [campaign, column] =
        singleFault(c, [](const fault::ColumnFaults &f) {
            return !f.weightStuckHigh && f.weightStuckBit >= 4 &&
                   f.weightStuckBit <= 6;
        });
    checkFault(campaign, column, 0);
}

TEST(ColumnEngineTest, ColumnOffsetMatchesReference)
{
    fault::FaultCampaign c;
    c.offsetColumnRate = 0.1;
    c.columnOffsetV = 0.2;
    const auto [campaign, column] = singleFault(
        c, [](const fault::ColumnFaults &f) { return f.offsetV != 0.0; });
    checkFault(campaign, column, 0);
}

TEST(ColumnEngineTest, MemoryLeakMatchesReference)
{
    // A leaky buffer droops every window that reads its column.
    fault::FaultCampaign c;
    c.memoryLeakRate = 0.1;
    c.leakHoldS = 50.0;
    const auto [campaign, column] =
        singleFault(c, [](const fault::ColumnFaults &f) {
            return f.extraHoldS > 0.0;
        });
    checkFault(campaign, column, kHalfWindow);
}

TEST(ColumnEngineTest, DeadColumnMatchesReference)
{
    const auto [campaign, column] =
        singleFault(fault::FaultCampaign::deadColumns(0.1),
                    [](const fault::ColumnFaults &f) { return f.dead; });
    checkFault(campaign, column, 0);
}

/** A pristine run agrees with the oracle in energy to rounding. */
TEST(ColumnEngineTest, EnergyMatchesReference)
{
    Workload w;
    for (double snr : {30.0, 50.0, 70.0}) {
        auto fast = makeArray(snr);
        auto slow = makeArray(snr);
        (void)w.run(fast);
        (void)w.runReference(slow);
        const EnergyBreakdown a = fast.energy();
        const EnergyBreakdown b = slow.energy();
        EXPECT_NEAR(a.macJ, b.macJ, 1e-9 * b.macJ) << snr << " dB";
        EXPECT_NEAR(a.memoryJ, b.memoryJ, 1e-9 * b.memoryJ)
            << snr << " dB";
    }
}

/** Noise is a pure function of the array seed and the output index. */
TEST(ColumnEngineTest, SameSeedIsBitIdentical)
{
    Workload w;
    auto a = makeArray(40.0, 7);
    auto b = makeArray(40.0, 7);
    auto other = makeArray(40.0, 8);
    const Tensor ya = w.run(a);
    const Tensor yb = w.run(b);
    EXPECT_EQ(ya.vec(), yb.vec());
    EXPECT_NE(ya.vec(), w.run(other).vec());
    // Each call draws a fresh base: a rerun realizes new noise.
    EXPECT_NE(ya.vec(), w.run(a).vec());
}

/**
 * Remapping healthy positions moves only energy between columns: every
 * output keeps its bits.
 */
TEST(ColumnEngineTest, RemapKeepsEveryOutput)
{
    Workload w;
    auto plain = makeArray(40.0);
    auto remapped = makeArray(40.0);
    std::vector<std::size_t> map(kColumns);
    for (std::size_t x = 0; x < kColumns; ++x)
        map[x] = (x + 5) % kColumns;
    remapped.setColumnMap(map);
    EXPECT_EQ(w.run(plain).vec(), w.run(remapped).vec());
    EXPECT_NEAR(convJ(plain), convJ(remapped), 1e-12 * convJ(plain));
}

/**
 * Reprogramming the conv SNR reaches the buffer cells as well as the
 * MACs: the array then realizes what one built at that SNR realizes.
 */
TEST(ColumnEngineTest, SetConvSnrDbMatchesFreshArray)
{
    Workload w;
    auto built = makeArray(55.0, 9);
    auto reprogrammed = makeArray(40.0, 9);
    reprogrammed.setConvSnrDb(55.0);
    EXPECT_EQ(w.run(built).vec(), w.run(reprogrammed).vec());
    EXPECT_EQ(w.runReference(built).vec(),
              w.runReference(reprogrammed).vec());
    const EnergyBreakdown a = built.energy();
    const EnergyBreakdown b = reprogrammed.energy();
    EXPECT_EQ(a.macJ, b.macJ);
    EXPECT_EQ(a.memoryJ, b.memoryJ);
}

} // namespace
} // namespace arch
} // namespace redeye
