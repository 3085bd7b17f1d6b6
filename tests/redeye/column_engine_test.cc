/**
 * @file
 * Tests of the closed-form engines against their oracles: conv
 * (runConvolution vs runConvolutionReference) over every conv-side
 * fault kind, the keyed noise, energy and reprogramming; max pooling
 * and SAR readout (runMaxPool, runQuantization vs their *Reference)
 * over comparator offsets, ADC stuck bits and dead columns.
 */

#include <cmath>
#include <functional>
#include <utility>

#include <gtest/gtest.h>

#include "analog/comparator.hh"
#include "fault/fault_model.hh"
#include "nn/conv.hh"
#include "nn/pool.hh"
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

/**
 * Pool1-shaped max pooling over every column: 3x3 windows, stride 2,
 * on a rectified-looking input (about half exact zeros) with near
 * ties planted a fraction of the comparator band apart.
 */
struct PoolWorkload {
    nn::MaxPoolLayer pool{"p", nn::PoolParams{3, 2, 0}};
    Tensor x{Shape(1, 4, 9, 2 * kColumns + 1)};

    PoolWorkload()
    {
        Rng rng(3);
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double u = rng.uniform(-1.0, 1.0);
            x[i] = u > 0.0 ? static_cast<float>(u) : 0.0f;
        }
        x[0] = 1.0f; // full scale: 1.0 -> swing
        // Every 5th element with a positive left neighbour sits
        // 0.2 mV above it, inside the 0.9 mV band.
        for (std::size_t i = 1; i < x.size(); i += 5) {
            if (x[i - 1] > 0.0f && x[i - 1] < 0.9f)
                x[i] = x[i - 1] + 2e-4f / 0.9f;
        }
    }
};

/** What the noiseless comparators route, per pooled output. */
struct PoolTruth {
    std::vector<float> value;
    /** Some decision between unequal candidates fell in the band,
     * so noise may route either. */
    std::vector<bool> decisive;
};

PoolTruth
noiselessPool(const PoolWorkload &w, const fault::FaultModel *faults)
{
    const double band = analog::DynamicComparator(
                            analog::ComparatorParams{},
                            analog::ProcessParams::typical())
                            .decisionConstants()
                            .band;
    const double swing = analog::ProcessParams::typical().signalSwing;
    const Shape os = w.pool.outputShape({w.x.shape()});
    const nn::PoolParams &p = w.pool.poolParams();
    const double in_scale = w.x.absMax();
    PoolTruth t;
    for (std::size_t oc = 0; oc < os.c; ++oc) {
        for (std::size_t oy = 0; oy < os.h; ++oy) {
            for (std::size_t ox = 0; ox < os.w; ++ox) {
                const fault::ColumnFaults *f =
                    faults ? &faults->column(ox % kColumns) : nullptr;
                const double offset = f ? f->comparatorOffsetV : 0.0;
                bool have = false;
                bool decisive = false;
                double best = 0.0;
                // Every window of the workload lies inside the input.
                for (std::size_t ky = 0; ky < p.kernel; ++ky) {
                    for (std::size_t kx = 0; kx < p.kernel; ++kx) {
                        const double v =
                            w.x.at(0, oc, oy * p.stride + ky,
                                   ox * p.stride + kx) /
                            in_scale * swing;
                        if (!have) {
                            best = v;
                            have = true;
                            continue;
                        }
                        const double delta = (v + offset) - best;
                        decisive |= v != best && std::fabs(delta) <= band;
                        if (delta > 0.0)
                            best = v;
                    }
                }
                if (f && f->dead)
                    best = swing;
                t.value.push_back(
                    static_cast<float>(best * in_scale / swing));
                t.decisive.push_back(decisive);
            }
        }
    }
    return t;
}

/** Four binomial sigmas (Poisson-bounded) of two forced counts. */
double
forcedBound(std::size_t forced)
{
    return 4.0 * std::sqrt(2.0 * static_cast<double>(forced)) + 4.0;
}

/**
 * Armed with @p model, closed-form pooling routes exactly what the
 * noiseless comparators do wherever no decision between unequal
 * candidates falls in the band, as the oracle does; forced counts
 * agree within binomial noise and comparator energy within 1%.
 */
void
checkPool(const fault::FaultModel *model)
{
    PoolWorkload w;
    const PoolTruth truth = noiselessPool(w, model);
    auto closed = makeArray(40.0);
    auto oracle = makeArray(40.0);
    closed.armFaults(model, 0);
    oracle.armFaults(model, 0);
    const Tensor got = closed.runMaxPool(w.x, w.pool);
    const Tensor want = oracle.runMaxPoolReference(w.x, w.pool);
    ASSERT_EQ(got.size(), truth.value.size());
    std::size_t exact = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (truth.decisive[i])
            continue;
        ASSERT_EQ(got[i], truth.value[i]) << "output " << i;
        ASSERT_EQ(want[i], truth.value[i]) << "output " << i;
        ++exact;
    }
    EXPECT_GT(exact, got.size() * 3 / 4);
    EXPECT_LT(exact, got.size()) << "no near tie reached the band";
    EXPECT_NEAR(static_cast<double>(closed.forcedDecisions()),
                static_cast<double>(oracle.forcedDecisions()),
                forcedBound(oracle.forcedDecisions()));
    const double j = oracle.energy().comparatorJ;
    EXPECT_NEAR(closed.energy().comparatorJ, j, 0.01 * j);
}

TEST(ColumnEngineTest, MaxPoolMatchesReference)
{
    checkPool(nullptr);
}

TEST(ColumnEngineTest, MaxPoolComparatorOffsetMatchesReference)
{
    fault::FaultCampaign c;
    c.comparatorOffsetRate = 0.3;
    c.seed = 5;
    const fault::FaultModel model(c, kColumns);
    PoolWorkload w;
    const PoolTruth clean = noiselessPool(w, nullptr);
    const PoolTruth shifted = noiselessPool(w, &model);
    ASSERT_NE(clean.value, shifted.value) << "the offsets left no mark";
    checkPool(&model);
}

TEST(ColumnEngineTest, MaxPoolDeadColumnMatchesReference)
{
    const auto [campaign, column] =
        singleFault(fault::FaultCampaign::deadColumns(0.1),
                    [](const fault::ColumnFaults &f) { return f.dead; });
    ASSERT_LT(column, kColumns);
    const fault::FaultModel model(campaign, kColumns);
    checkPool(&model);
}

/**
 * Readout input whose every element converts at a code centre at 4
 * bits (the 1.0 maps onto vref): no bit decision comes near the band.
 */
Tensor
codeCentres()
{
    Tensor x(Shape(1, 4, 4, kColumns));
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = (static_cast<float>((i * 7) % 16) + 0.5f) / 16.0f;
    x[3] = 1.0f;
    return x;
}

/**
 * Armed with @p model, the closed-form readout returns the oracle's
 * values exactly on code centres, stuck bits and rails included, at
 * the oracle's readout energy.
 */
void
checkReadout(const fault::FaultModel *model)
{
    const Tensor x = codeCentres();
    auto plain = makeArray(40.0);
    auto closed = makeArray(40.0);
    auto oracle = makeArray(40.0);
    closed.armFaults(model, 0);
    oracle.armFaults(model, 0);
    const Tensor got = closed.runQuantization(x);
    EXPECT_EQ(got.vec(), oracle.runQuantizationReference(x).vec());
    if (model) {
        EXPECT_NE(got.vec(), plain.runQuantization(x).vec())
            << "the fault left no mark";
    }
    EXPECT_EQ(closed.forcedDecisions(), 0u);
    const double j = oracle.energy().readoutJ;
    EXPECT_NEAR(closed.energy().readoutJ, j, 1e-3 * j);
}

TEST(ColumnEngineTest, QuantizationMatchesReference)
{
    checkReadout(nullptr);
}

TEST(ColumnEngineTest, AdcStuckBitHighMatchesReference)
{
    fault::FaultCampaign c;
    c.adcStuckBitRate = 0.1;
    const auto [campaign, column] =
        singleFault(c, [](const fault::ColumnFaults &f) {
            return f.adcStuckHigh && f.adcStuckBit >= 0 &&
                   f.adcStuckBit < 4;
        });
    ASSERT_LT(column, kColumns);
    const fault::FaultModel model(campaign, kColumns);
    checkReadout(&model);
}

TEST(ColumnEngineTest, AdcStuckBitLowMatchesReference)
{
    fault::FaultCampaign c;
    c.adcStuckBitRate = 0.1;
    const auto [campaign, column] =
        singleFault(c, [](const fault::ColumnFaults &f) {
            return !f.adcStuckHigh && f.adcStuckBit >= 0 &&
                   f.adcStuckBit < 4;
        });
    ASSERT_LT(column, kColumns);
    const fault::FaultModel model(campaign, kColumns);
    checkReadout(&model);
}

TEST(ColumnEngineTest, QuantizationDeadColumnMatchesReference)
{
    const auto [campaign, column] =
        singleFault(fault::FaultCampaign::deadColumns(0.1),
                    [](const fault::ColumnFaults &f) { return f.dead; });
    ASSERT_LT(column, kColumns);
    const fault::FaultModel model(campaign, kColumns);
    checkReadout(&model);
}

/**
 * The SAR comparators' forced decisions count: a dense ramp puts
 * inputs within the metastable window of many thresholds.
 */
TEST(ColumnEngineTest, ReadoutCountsForcedDecisions)
{
    Tensor ramp(Shape(1, 1, 512, kColumns));
    for (std::size_t i = 0; i < ramp.size(); ++i)
        ramp[i] = static_cast<float>(i) / static_cast<float>(ramp.size());
    auto closed = makeArray(40.0);
    auto oracle = makeArray(40.0);
    (void)closed.runQuantization(ramp);
    (void)oracle.runQuantizationReference(ramp);
    EXPECT_GT(oracle.forcedDecisions(), 0u);
    EXPECT_GT(closed.forcedDecisions(), 0u);
    EXPECT_NEAR(static_cast<double>(closed.forcedDecisions()),
                static_cast<double>(oracle.forcedDecisions()),
                forcedBound(oracle.forcedDecisions()));
    closed.resetEnergy();
    EXPECT_EQ(closed.forcedDecisions(), 0u);
}

/** Pooled and quantized outputs are a pure function of the seed. */
TEST(ColumnEngineTest, PoolAndReadoutSameSeedAreBitIdentical)
{
    PoolWorkload w;
    auto a = makeArray(40.0, 7);
    auto b = makeArray(40.0, 7);
    const Tensor pa = a.runMaxPool(w.x, w.pool);
    EXPECT_EQ(pa.vec(), b.runMaxPool(w.x, w.pool).vec());
    EXPECT_EQ(a.runQuantization(pa).vec(), b.runQuantization(pa).vec());
    EXPECT_EQ(a.forcedDecisions(), b.forcedDecisions());
    EXPECT_EQ(a.energy().comparatorJ, b.energy().comparatorJ);
    EXPECT_EQ(a.energy().readoutJ, b.energy().readoutJ);
}

/**
 * A dead column moves only the pooled outputs and conversions it
 * serves; remapping its position onto a healthy neighbour restores
 * every pooled output bit for bit (comparators differ only in their
 * faults) and every other conversion.
 */
TEST(ColumnEngineTest, PoolAndReadoutIgnoreOtherColumnsFaults)
{
    const auto [campaign, dead] =
        singleFault(fault::FaultCampaign::deadColumns(0.1),
                    [](const fault::ColumnFaults &f) { return f.dead; });
    ASSERT_LT(dead, kColumns);
    const fault::FaultModel model(campaign, kColumns);
    std::vector<std::size_t> map(kColumns);
    for (std::size_t x = 0; x < kColumns; ++x)
        map[x] = x == dead ? (dead + 1) % kColumns : x;

    PoolWorkload w;
    auto plain = makeArray(40.0);
    auto armed = makeArray(40.0);
    auto remapped = makeArray(40.0);
    armed.armFaults(&model, 0);
    remapped.armFaults(&model, 0);
    remapped.setColumnMap(map);

    const Tensor clean = plain.runMaxPool(w.x, w.pool);
    const Tensor railed = armed.runMaxPool(w.x, w.pool);
    EXPECT_EQ(remapped.runMaxPool(w.x, w.pool).vec(), clean.vec());
    const Shape &s = clean.shape();
    ASSERT_EQ(s.w, kColumns);
    bool moved = false;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        if (i % s.w != dead)
            ASSERT_EQ(railed[i], clean[i]) << "pooled output " << i;
        else
            moved |= railed[i] != clean[i];
    }
    EXPECT_TRUE(moved);

    // All three convert one input: the readout scales by its peak.
    const Tensor qc = plain.runQuantization(clean);
    const Tensor qa = armed.runQuantization(clean);
    const Tensor qr = remapped.runQuantization(clean);
    const float lsb = clean.absMax() / 16.0f;
    for (std::size_t i = 0; i < qc.size(); ++i) {
        if (i % s.w != dead) {
            ASSERT_EQ(qa[i], qc[i]) << "conversion " << i;
            ASSERT_EQ(qr[i], qc[i]) << "conversion " << i;
        } else {
            EXPECT_NEAR(qr[i], qc[i], 1.01f * lsb) << "conversion " << i;
        }
    }
}

} // namespace
} // namespace arch
} // namespace redeye
