/**
 * @file
 * Statistical differential of the closed-form column engines against
 * their oracles on the served workload: trained conv1 on
 * sensor-sampled replay frames, then pool1 and the 4-bit readout on
 * that conv1 output. The engines realize different noise draws, so
 * the comparison is of what they realize in distribution (SNR,
 * decision flips, code histograms, forced decisions) and of what they
 * count (energy).
 */

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "core/stats.hh"
#include "data/shapes_dataset.hh"
#include "fault/fault_model.hh"
#include "models/mini_googlenet.hh"
#include "nn/conv.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "noise/sensor_noise.hh"
#include "redeye/column.hh"
#include "sim/pretrained.hh"

namespace redeye {
namespace {

constexpr std::size_t kFrames = 8;

/** Trained network and the sampled frames, built once. */
class ServedConv1
{
  public:
    static ServedConv1 &
    instance()
    {
        static ServedConv1 inst;
        return inst;
    }

    nn::ConvolutionLayer &
    conv1()
    {
        return static_cast<nn::ConvolutionLayer &>(net_->layer("conv1"));
    }

    nn::MaxPoolLayer &
    pool1()
    {
        return static_cast<nn::MaxPoolLayer &>(net_->layer("pool1"));
    }

    const std::vector<Tensor> &frames() const { return frames_; }

  private:
    ServedConv1()
    {
        net_ = sim::pretrainedMiniGoogLeNet().net;
        Rng replay_rng(0x5eed);
        const data::Dataset replay =
            data::generateShapes(1, data::ShapesParams{}, replay_rng);
        noise::SensorSamplingLayer sensor("sensor", noise::SensorParams{},
                                          Rng(0x5e9505));
        for (std::size_t i = 0; i < kFrames; ++i) {
            const Tensor image = replay.images.slice(i % replay.size());
            Tensor sampled;
            sensor.setPass(i);
            sensor.forward({&image}, sampled);
            frames_.push_back(std::move(sampled));
        }
    }

    std::unique_ptr<nn::Network> net_;
    std::vector<Tensor> frames_;
};

arch::ColumnArray
makeArray(double snr, std::uint64_t seed)
{
    arch::ColumnArrayConfig cfg;
    cfg.columns = models::kMiniInputSize;
    cfg.convSnrDb = snr;
    return arch::ColumnArray(cfg, analog::ProcessParams::typical(),
                             Rng(seed));
}

double
convJ(const arch::ColumnArray &array)
{
    const arch::EnergyBreakdown e = array.energy();
    return e.macJ + e.memoryJ;
}

void
append(std::vector<float> &to, const Tensor &t)
{
    to.insert(to.end(), t.vec().begin(), t.vec().end());
}

/**
 * Over all frames, the realized SNR (against the digital conv) is
 * within 0.5 dB of the oracle's at every operating point, and each
 * frame's conv energy is the oracle's to rounding.
 */
TEST(ColumnEngineDifferentialTest, SnrAndEnergyMatchReference)
{
    auto &served = ServedConv1::instance();
    nn::ConvolutionLayer &conv = served.conv1();
    for (double snr : {30.0, 40.0, 50.0}) {
        std::vector<float> digital, fast, slow;
        for (std::size_t i = 0; i < kFrames; ++i) {
            const Tensor &x = served.frames()[i];
            Tensor ref;
            conv.forward({&x}, ref);
            auto closed = makeArray(snr, 100 + i);
            auto oracle = makeArray(snr, 200 + i);
            append(digital, ref);
            append(fast, closed.runConvolution(x, conv, false));
            append(slow, oracle.runConvolutionReference(x, conv, false));
            EXPECT_NEAR(convJ(closed), convJ(oracle),
                        1e-9 * convJ(oracle))
                << "frame " << i << " at " << snr << " dB";
        }
        EXPECT_NEAR(measureSnrDb(digital, fast),
                    measureSnrDb(digital, slow), 0.5)
            << snr << " dB";
    }
}

TEST(ColumnEngineDifferentialTest, SameSeedIsBitIdentical)
{
    auto &served = ServedConv1::instance();
    for (std::size_t i = 0; i < kFrames; ++i) {
        auto a = makeArray(40.0, 300 + i);
        auto b = makeArray(40.0, 300 + i);
        const Tensor &x = served.frames()[i];
        EXPECT_EQ(a.runConvolution(x, served.conv1(), true).vec(),
                  b.runConvolution(x, served.conv1(), true).vec())
            << "frame " << i;
    }
}

/**
 * A dead column moves only the outputs it serves, and remapping its
 * position onto a healthy neighbour restores every output bit for
 * bit: an output's noise belongs to the output, not to the column.
 */
TEST(ColumnEngineDifferentialTest, OutputsIgnoreOtherColumnsFaults)
{
    constexpr std::size_t kColumns = models::kMiniInputSize;
    fault::FaultCampaign c = fault::FaultCampaign::deadColumns(0.05);
    std::size_t dead = kColumns;
    for (std::uint64_t seed = 1; seed < 500 && dead == kColumns; ++seed) {
        c.seed = seed;
        fault::FaultModel m(c, kColumns);
        if (m.deadColumnCount() != 1)
            continue;
        for (std::size_t col = 0; col < kColumns; ++col) {
            if (m.column(col).dead)
                dead = col;
        }
    }
    ASSERT_LT(dead, kColumns);
    const fault::FaultModel model(c, kColumns);
    std::vector<std::size_t> map(kColumns);
    for (std::size_t x = 0; x < kColumns; ++x)
        map[x] = x == dead ? (dead + 1) % kColumns : x;

    auto &served = ServedConv1::instance();
    for (std::size_t i = 0; i < kFrames; ++i) {
        const Tensor &x = served.frames()[i];
        auto plain = makeArray(40.0, 400 + i);
        auto armed = makeArray(40.0, 400 + i);
        auto remapped = makeArray(40.0, 400 + i);
        armed.armFaults(&model, 0);
        remapped.armFaults(&model, 0);
        remapped.setColumnMap(map);
        const Tensor clean = plain.runConvolution(x, served.conv1(), true);
        const Tensor railed =
            armed.runConvolution(x, served.conv1(), true);
        const Shape &s = clean.shape();
        ASSERT_EQ(s.w, kColumns);
        for (std::size_t oc = 0; oc < s.c; ++oc) {
            for (std::size_t oy = 0; oy < s.h; ++oy) {
                for (std::size_t ox = 0; ox < s.w; ++ox) {
                    if (ox != dead) {
                        ASSERT_EQ(railed.at(0, oc, oy, ox),
                                  clean.at(0, oc, oy, ox))
                            << "frame " << i;
                    }
                }
            }
        }
        EXPECT_NE(railed.vec(), clean.vec()) << "frame " << i;
        EXPECT_EQ(remapped.runConvolution(x, served.conv1(), true).vec(),
                  clean.vec())
            << "frame " << i;
    }
}

/** What one engine realized for pool1 and the readout, all frames. */
struct PoolReadout {
    std::size_t pooled = 0;      ///< pooled outputs
    std::size_t flips = 0;       ///< ... unequal to the window max
    std::vector<std::size_t> codes = std::vector<std::size_t>(16);
    std::size_t poolForced = 0;
    std::size_t readoutForced = 0;
    std::vector<double> comparatorJ; ///< per frame
    std::vector<double> readoutJ;    ///< per frame
};

/** Four binomial sigmas of two counts' difference, Poisson-bounded. */
double
countBound(std::size_t count)
{
    return 4.0 * std::sqrt(2.0 * static_cast<double>(count)) + 4.0;
}

/**
 * Pool1 and the 4-bit readout, closed form against the oracles, both
 * armed with @p model, on each frame's conv1 output. Both readouts
 * convert the closed form's pooled tensor, so readout differences are
 * the readout's own.
 */
void
checkPoolAndReadout(const fault::FaultModel *model)
{
    auto &served = ServedConv1::instance();
    nn::MaxPoolLayer &pool = served.pool1();
    PoolReadout fast, slow;
    bool marked = false;
    for (std::size_t i = 0; i < kFrames; ++i) {
        auto conv = makeArray(40.0, 500 + i);
        const Tensor c =
            conv.runConvolution(served.frames()[i], served.conv1(), true);
        Tensor window_max;
        pool.forward({&c}, window_max);

        auto closed = makeArray(40.0, 600 + i);
        auto oracle = makeArray(40.0, 700 + i);
        closed.armFaults(model, 0);
        oracle.armFaults(model, 0);
        const Tensor p = closed.runMaxPool(c, pool);
        const Tensor p_ref = oracle.runMaxPoolReference(c, pool);
        const auto tally_pool = [&](PoolReadout &r,
                                    arch::ColumnArray &array,
                                    const Tensor &pooled) {
            r.pooled += pooled.size();
            for (std::size_t k = 0; k < pooled.size(); ++k)
                r.flips += pooled[k] != window_max[k];
            r.poolForced += array.forcedDecisions();
            r.comparatorJ.push_back(array.energy().comparatorJ);
            array.resetEnergy();
        };
        tally_pool(fast, closed, p);
        tally_pool(slow, oracle, p_ref);

        const Tensor q = closed.runQuantization(p);
        const Tensor q_ref = oracle.runQuantizationReference(p);
        const double lsb = p.absMax() / 16.0;
        const auto tally_readout = [&](PoolReadout &r,
                                       const arch::ColumnArray &array,
                                       const Tensor &quantized) {
            for (float v : quantized.vec())
                ++r.codes.at(static_cast<std::size_t>(
                    std::lround(v / lsb - 0.5)));
            r.readoutForced += array.forcedDecisions();
            r.readoutJ.push_back(array.energy().readoutJ);
        };
        tally_readout(fast, closed, q);
        tally_readout(slow, oracle, q_ref);

        if (model) {
            auto plain = makeArray(40.0, 600 + i);
            const Tensor clean = plain.runMaxPool(c, pool);
            marked |= clean.vec() != p.vec() ||
                      plain.runQuantization(p).vec() != q.vec();
        }
    }
    if (model) {
        EXPECT_TRUE(marked) << "the faults left no mark";
    }

    const double n = static_cast<double>(slow.pooled);
    const double rate = static_cast<double>(slow.flips) / n;
    EXPECT_NEAR(static_cast<double>(fast.flips) / n, rate,
                4.0 * std::sqrt(2.0 * rate * (1.0 - rate) / n) + 2.0 / n)
        << slow.flips << " oracle flips of " << slow.pooled;
    for (std::size_t b = 0; b < fast.codes.size(); ++b) {
        EXPECT_NEAR(static_cast<double>(fast.codes[b]),
                    static_cast<double>(slow.codes[b]),
                    countBound(slow.codes[b]))
            << "code " << b;
    }
    EXPECT_NEAR(static_cast<double>(fast.poolForced),
                static_cast<double>(slow.poolForced),
                countBound(slow.poolForced));
    EXPECT_NEAR(static_cast<double>(fast.readoutForced),
                static_cast<double>(slow.readoutForced),
                countBound(slow.readoutForced));
    for (std::size_t i = 0; i < kFrames; ++i) {
        EXPECT_NEAR(fast.comparatorJ[i], slow.comparatorJ[i],
                    0.01 * slow.comparatorJ[i])
            << "frame " << i;
        EXPECT_NEAR(fast.readoutJ[i], slow.readoutJ[i],
                    0.01 * slow.readoutJ[i])
            << "frame " << i;
    }
}

/** Faults of one kind on a quarter of the columns. */
fault::FaultModel
campaignOf(void (*arm)(fault::FaultCampaign &))
{
    fault::FaultCampaign c;
    c.seed = 17;
    arm(c);
    return fault::FaultModel(c, models::kMiniInputSize);
}

TEST(ColumnEngineDifferentialTest, PoolAndReadoutMatchReference)
{
    checkPoolAndReadout(nullptr);
}

TEST(ColumnEngineDifferentialTest, PoolAndReadoutWithComparatorOffsets)
{
    const fault::FaultModel model = campaignOf(
        [](fault::FaultCampaign &c) { c.comparatorOffsetRate = 0.25; });
    checkPoolAndReadout(&model);
}

TEST(ColumnEngineDifferentialTest, PoolAndReadoutWithAdcStuckBits)
{
    const fault::FaultModel model = campaignOf(
        [](fault::FaultCampaign &c) { c.adcStuckBitRate = 0.25; });
    checkPoolAndReadout(&model);
}

TEST(ColumnEngineDifferentialTest, PoolAndReadoutWithDeadColumns)
{
    const fault::FaultModel model = campaignOf(
        [](fault::FaultCampaign &c) { c.deadColumnRate = 0.25; });
    checkPoolAndReadout(&model);
}

} // namespace
} // namespace redeye
