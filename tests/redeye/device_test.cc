/** @file Tests for whole-partition functional execution. */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/stats.hh"
#include "models/mini_googlenet.hh"
#include "nn/activation.hh"
#include "nn/conv.hh"
#include "nn/network.hh"
#include "nn/pool.hh"
#include "nn/quantize.hh"
#include "redeye/device.hh"

namespace redeye {
namespace arch {
namespace {

RedEyeDevice
makeDevice(double snr = 60.0, unsigned adc_bits = 8)
{
    ColumnArrayConfig cfg;
    cfg.columns = models::kMiniInputSize;
    cfg.convSnrDb = snr;
    cfg.adcBits = adc_bits;
    return RedEyeDevice(cfg, analog::ProcessParams::typical(),
                        Rng(0xd1ce));
}

TEST(DeviceTest, Depth1FeaturesTrackDigitalReference)
{
    Rng rng(1);
    auto net = models::buildMiniGoogLeNet(10, rng);
    nn::quantizeNetworkWeights(*net, 8);
    const auto layers = models::miniGoogLeNetAnalogLayers(1);

    Tensor x(Shape(1, 3, 32, 32));
    Rng xrng(2);
    x.fillUniform(xrng, 0.0f, 1.0f);

    // Digital reference at the cut.
    net->forward(x);
    const Tensor digital = net->activation(layers.back());

    auto device = makeDevice();
    const auto run = device.run(*net, layers, x);
    ASSERT_EQ(run.features.shape(), digital.shape());
    EXPECT_GT(measureSnrDb(digital.vec(), run.features.vec()), 15.0);
    EXPECT_EQ(run.executedLayers.size(), layers.size());
}

TEST(DeviceTest, EnergyReportedPerCategory)
{
    Rng rng(3);
    auto net = models::buildMiniGoogLeNet(10, rng);
    const auto layers = models::miniGoogLeNetAnalogLayers(1);
    Tensor x(Shape(1, 3, 32, 32), 0.5f);
    auto device = makeDevice();
    const auto run = device.run(*net, layers, x);
    EXPECT_GT(run.energy.macJ, 0.0);
    EXPECT_GT(run.energy.memoryJ, 0.0);
    EXPECT_GT(run.energy.comparatorJ, 0.0);
    EXPECT_GT(run.energy.readoutJ, 0.0);
}

/**
 * A run reports its own forced decisions, not a running total: two
 * runs of one device on one frame force about as many.
 */
TEST(DeviceTest, ForcedDecisionsArePerRun)
{
    Rng rng(6);
    auto net = models::buildMiniGoogLeNet(10, rng);
    const auto layers = models::miniGoogLeNetAnalogLayers(1);
    Tensor x(Shape(1, 3, 32, 32));
    Rng xrng(7);
    x.fillUniform(xrng, 0.0f, 1.0f);

    auto device = makeDevice(40.0, 4);
    const auto first = device.run(*net, layers, x);
    const auto second = device.run(*net, layers, x);
    ASSERT_GT(first.forcedDecisions, 1000u);
    EXPECT_NEAR(static_cast<double>(second.forcedDecisions),
                static_cast<double>(first.forcedDecisions),
                0.1 * static_cast<double>(first.forcedDecisions));
    EXPECT_NEAR(second.energy.totalJ(), first.energy.totalJ(),
                0.01 * first.energy.totalJ());
}

TEST(DeviceTest, LowSnrDegradesFeatures)
{
    Rng rng(4);
    auto net = models::buildMiniGoogLeNet(10, rng);
    const auto layers = models::miniGoogLeNetAnalogLayers(1);
    Tensor x(Shape(1, 3, 32, 32));
    Rng xrng(5);
    x.fillUniform(xrng, 0.0f, 1.0f);

    net->forward(x);
    const Tensor digital = net->activation(layers.back());

    auto hi = makeDevice(60.0);
    auto lo = makeDevice(28.0);
    const auto run_hi = hi.run(*net, layers, x);
    const auto run_lo = lo.run(*net, layers, x);
    EXPECT_GT(measureSnrDb(digital.vec(), run_hi.features.vec()),
              measureSnrDb(digital.vec(), run_lo.features.vec()) +
                  3.0);
}

TEST(DeviceTest, InceptionPartitionExecutes)
{
    Rng rng(6);
    auto net = models::buildMiniGoogLeNet(10, rng);
    const auto layers = models::miniGoogLeNetAnalogLayers(3);
    Tensor x(Shape(1, 3, 32, 32));
    Rng xrng(7);
    x.fillUniform(xrng, 0.0f, 1.0f);
    auto device = makeDevice();
    const auto run = device.run(*net, layers, x);
    // inception_a concatenates to 88 channels at 8x8.
    EXPECT_EQ(run.features.shape(), Shape(1, 88, 8, 8));
}

/**
 * Only a ReLU right after its conv folds into it; one after a pool
 * still clips. The readout maps [0, absMax] onto its codes: two
 * channels sit far below 0 and two near it, so the clipped tensor
 * reads out on a much finer scale and far more of its features rise
 * above the lowest code.
 */
TEST(DeviceTest, ReluAfterPoolClips)
{
    nn::Network net;
    net.setInputShape(Shape(1, 3, 32, 32));
    auto &conv = static_cast<nn::ConvolutionLayer &>(
        net.add(std::make_unique<nn::ConvolutionLayer>(
                    "conv", nn::ConvParams::square(4, 3, 1, 1)),
                {nn::kInputName}));
    net.add(std::make_unique<nn::MaxPoolLayer>("pool",
                                               nn::PoolParams{2, 2, 0}));
    net.add(std::make_unique<nn::ReluLayer>("relu"));
    Rng wrng(10);
    conv.weights().fillUniform(wrng, -0.1f, 0.1f);
    // Two channels far below 0, two around it.
    conv.biases()[0] = conv.biases()[1] = -6.0f;
    conv.biases()[2] = conv.biases()[3] = 0.0f;
    Tensor x(Shape(1, 3, 32, 32));
    Rng xrng(11);
    x.fillUniform(xrng, 0.0f, 1.0f);

    const auto pooled = makeDevice(60.0, 4).run(net, {"conv", "pool"}, x);
    const auto rectified =
        makeDevice(60.0, 4).run(net, {"conv", "pool", "relu"}, x);
    // Features above the readout's lowest code (code 0 reads back
    // as half a step, not as 0).
    const auto raised = [](const Tensor &t) {
        const float bottom = *std::min_element(t.vec().begin(),
                                               t.vec().end());
        std::size_t n = 0;
        for (std::size_t k = 0; k < t.size(); ++k)
            n += t[k] > bottom;
        return n;
    };
    EXPECT_GT(raised(rectified.features), 2 * raised(pooled.features));
    EXPECT_EQ(rectified.executedLayers.size(), 3u);
}

TEST(DeviceTest, ConsumingLayerOutsidePartitionFatal)
{
    Rng rng(8);
    auto net = models::buildMiniGoogLeNet(10, rng);
    // Skip conv1 but include pool1: pool1 consumes a tensor that
    // was never produced on the device.
    std::vector<std::string> broken{"pool1"};
    Tensor x(Shape(1, 3, 32, 32), 0.5f);
    auto device = makeDevice();
    EXPECT_EXIT(device.run(*net, broken, x),
                ::testing::ExitedWithCode(1),
                "not in the partition");
}

TEST(DeviceTest, BatchedInputFatal)
{
    Rng rng(9);
    auto net = models::buildMiniGoogLeNet(10, rng);
    Tensor x(Shape(2, 3, 32, 32), 0.5f);
    auto device = makeDevice();
    EXPECT_EXIT(device.run(*net,
                           models::miniGoogLeNetAnalogLayers(1), x),
                ::testing::ExitedWithCode(1), "one frame");
}

} // namespace
} // namespace arch
} // namespace redeye
