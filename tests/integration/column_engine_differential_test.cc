/**
 * @file
 * Statistical differential of the closed-form conv engine
 * (ColumnArray::runConvolution) against the per-tap oracle
 * (runConvolutionReference) on the served workload: trained conv1 on
 * sensor-sampled replay frames. The engines realize different noise
 * draws, so the comparison is of what they realize in distribution
 * (SNR) and of what they count exactly (energy).
 */

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

} // namespace
} // namespace redeye
