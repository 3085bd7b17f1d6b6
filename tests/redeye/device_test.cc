/** @file Tests for whole-partition functional execution. */

#include <gtest/gtest.h>

#include "core/stats.hh"
#include "models/mini_googlenet.hh"
#include "nn/network.hh"
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
