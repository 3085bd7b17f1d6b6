/**
 * @file
 * Cross-module integration tests: the paper's headline claims
 * exercised end-to-end through the real models (no hand-entered
 * workload constants), and the noise abstraction validated against a
 * trained classifier and the circuit-level engine.
 */

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "core/stats.hh"
#include "data/shapes_dataset.hh"
#include "models/googlenet.hh"
#include "models/mini_googlenet.hh"
#include "models/partition.hh"
#include "nn/quantize.hh"
#include "nn/serialize.hh"
#include "redeye/column.hh"
#include "redeye/compiler.hh"
#include "redeye/energy_model.hh"
#include "sim/evaluator.hh"
#include "sim/experiments.hh"
#include "sim/noise_injector.hh"
#include "sim/pretrained.hh"
#include "sim/training.hh"
#include "system/pipeline.hh"
#include "system/shidiannao.hh"

namespace redeye {
namespace {

/** Shared trained classifier (built once; training dominates). */
class TrainedMiniNet
{
  public:
    static TrainedMiniNet &
    instance()
    {
        static TrainedMiniNet inst;
        return inst;
    }

    nn::Network &net() { return *net_; }

    /**
     * A private copy of the trained net, for a test that injects
     * noise: injected layers stay in the net they were added to, and
     * a second injection into one net is fatal.
     */
    std::unique_ptr<nn::Network>
    copyNet()
    {
        Rng rng(0);
        auto copy = models::buildMiniGoogLeNet(data::kShapeClasses, rng);
        nn::copyWeightsByName(*copy, *net_);
        return copy;
    }

    const data::Dataset &val() const { return val_; }
    double cleanTop1() const { return cleanTop1_; }
    double cleanTop5() const { return cleanTop5_; }

  private:
    TrainedMiniNet()
    {
        net_ = sim::pretrainedMiniGoogLeNet().net;
        val_ = sim::pretrainedHeldOutSet(sim::PretrainedTask::Standard);
        const auto r = sim::evaluate(*net_, val_);
        cleanTop1_ = r.top1;
        cleanTop5_ = r.topN;
    }

    std::unique_ptr<nn::Network> net_;
    data::Dataset val_;
    double cleanTop1_ = 0.0;
    double cleanTop5_ = 0.0;
};

TEST(EndToEndTest, TrainedClassifierLearnsTheTask)
{
    auto &t = TrainedMiniNet::instance();
    EXPECT_GT(t.cleanTop1(), 0.65);
    EXPECT_GT(t.cleanTop5(), 0.95);
}

TEST(EndToEndTest, AccuracyRobustAtFortyDbFragileBelowThirty)
{
    // The paper's central noise finding (Figure 9): accuracy holds
    // at the 40-60 dB operating range and collapses well below it.
    auto &t = TrainedMiniNet::instance();
    auto net = t.copyNet();
    auto handles = sim::injectNoise(
        *net, models::miniGoogLeNetAnalogLayers(4), sim::NoiseSpec{});

    handles.setSnrDb(40.0);
    handles.setAdcBits(4);
    const auto at40 = sim::evaluate(*net, t.val());
    // The synthetic shapes task is easier than ImageNet, so its
    // knee sits lower than the paper's ~30 dB; probe well below it.
    handles.setSnrDb(8.0);
    const auto at8 = sim::evaluate(*net, t.val());

    EXPECT_GT(at40.top1, t.cleanTop1() - 0.10);
    EXPECT_GT(at40.topN, 0.90);
    EXPECT_LT(at8.top1, at40.top1 - 0.15);
}

TEST(EndToEndTest, FourToSixAdcBitsSufficient)
{
    // Figure 10: 4-6 bit quantization keeps accuracy; 1-2 bits hurt.
    auto &t = TrainedMiniNet::instance();
    auto net = t.copyNet();
    auto handles = sim::injectNoise(
        *net, models::miniGoogLeNetAnalogLayers(4), sim::NoiseSpec{});
    handles.setSnrDb(40.0);

    handles.setAdcBits(5);
    const auto at5 = sim::evaluate(*net, t.val());
    handles.setAdcBits(1);
    const auto at1 = sim::evaluate(*net, t.val());

    EXPECT_GT(at5.top1, t.cleanTop1() - 0.12);
    EXPECT_LT(at1.top1, at5.top1 + 0.02);
}

TEST(EndToEndTest, HeadlineSensorEnergyReduction)
{
    // "85% reduction in sensor energy" with the real Depth1 model.
    arch::RedEyeConfig cfg;
    const auto rows = sim::googLeNetDepthSweep(cfg);
    const double sensor = arch::imageSensorAnalogEnergyJ(227, 227, 3,
                                                         10);
    const double reduction = 1.0 - rows[0].analogEnergyJ / sensor;
    EXPECT_GT(reduction, 0.80);
    EXPECT_LT(reduction, 0.90);
}

TEST(EndToEndTest, HeadlineCloudletReduction)
{
    // "73% reduction in cloudlet-based system energy" at Depth4.
    arch::RedEyeConfig cfg;
    const auto rows = sim::googLeNetDepthSweep(cfg);
    sys::CloudletPipeline pipe;
    const double raw_bytes = arch::imageSensorOutputBytes(227, 227, 3,
                                                          10);
    const auto conventional = pipe.estimate(
        arch::imageSensorAnalogEnergyJ(227, 227, 3, 10), 1.0 / 30.0,
        raw_bytes);
    const auto redeye = pipe.estimate(rows[3].analogEnergyJ,
                                      rows[3].frameTimeS,
                                      rows[3].outputBytes);
    const double reduction = 1.0 - redeye.totalJ() /
                                       conventional.totalJ();
    EXPECT_NEAR(reduction, 0.732, 0.03);
}

TEST(EndToEndTest, HeadlineComputeReduction)
{
    // "45% reduction in computation-based system energy" at Depth5,
    // with workload counts taken from the real GoogLeNet graph.
    auto net = models::buildGoogLeNet(227);
    const double full = static_cast<double>(net->totalMacs());
    const double tail5 = static_cast<double>(models::digitalTailMacs(
        *net, models::googLeNetAnalogLayers(5)));

    arch::RedEyeConfig cfg;
    const auto rows = sim::googLeNetDepthSweep(cfg);

    for (auto proc : {sys::JetsonProcessor::GPU,
                      sys::JetsonProcessor::CPU}) {
        sys::JetsonTk1 host(sys::JetsonParams::paper(proc, full,
                                                     tail5));
        sys::HostPipeline pipe(host);
        const auto conventional = pipe.estimate(
            arch::imageSensorAnalogEnergyJ(227, 227, 3, 10),
            1.0 / 30.0, full);
        const auto redeye = pipe.estimate(rows[4].analogEnergyJ,
                                          rows[4].frameTimeS, tail5);
        const double reduction = 1.0 - redeye.totalJ() /
                                           conventional.totalJ();
        EXPECT_NEAR(reduction, 0.45, 0.03)
            << sys::jetsonProcessorName(proc);
    }
}

TEST(EndToEndTest, ShiDianNaoComparison)
{
    // ~59% reduction versus accelerator + sensor at Depth4.
    arch::RedEyeConfig cfg;
    const auto rows = sim::googLeNetDepthSweep(cfg);
    const double accel = sys::shiDianNaoEnergyJ(227, 227) +
                         arch::imageSensorAnalogEnergyJ(227, 227, 3,
                                                        10);
    const double reduction = 1.0 - rows[3].analogEnergyJ / accel;
    EXPECT_NEAR(reduction, 0.59, 0.06);
}

TEST(EndToEndTest, CircuitEngineRealizesProgrammedSnrOrdering)
{
    // The circuit-level column engine and the Gaussian-layer
    // abstraction must agree on how fidelity scales with the knob:
    // +10 dB programmed -> ~+10 dB realized (within a few dB).
    Rng rng(0xabc);
    nn::ConvolutionLayer conv("c", nn::ConvParams::square(4, 3, 1, 1));
    Tensor x(Shape(1, 3, 12, 12));
    Rng xrng(0xdef);
    x.fillUniform(xrng, 0.0f, 1.0f);
    (void)conv.outputShape({x.shape()});
    conv.initHe(rng);
    nn::quantizeTensor(conv.weights(), 8);
    Tensor digital;
    conv.forward({&x}, digital);

    double previous = -1e9;
    for (double snr : {35.0, 45.0, 55.0}) {
        arch::ColumnArrayConfig cfg;
        cfg.columns = 12;
        cfg.convSnrDb = snr;
        arch::ColumnArray array(cfg,
                                analog::ProcessParams::typical(),
                                Rng(0x777));
        const Tensor out = array.runConvolution(x, conv, false);
        const double realized = measureSnrDb(digital.vec(),
                                             out.vec());
        EXPECT_GT(realized, previous + 4.0) << "snr " << snr;
        previous = realized;
    }
}

} // namespace
} // namespace redeye
