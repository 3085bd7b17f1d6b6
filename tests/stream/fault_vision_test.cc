/**
 * @file
 * End-to-end fault-injection tests of the vision pipeline: the
 * zero-fault bit-identity guarantee, and the degradation policy
 * recovering accuracy under dead-column campaigns (the ISSUE's
 * acceptance scenario, scaled to test size).
 */

#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "models/mini_googlenet.hh"
#include "sim/pretrained.hh"
#include "stream/vision.hh"

namespace redeye {
namespace stream {
namespace {

StreamReport
runVision(const VisionConfig &vc, FrameSource &source,
          std::uint64_t frames)
{
    RunnerConfig rc;
    rc.frames = frames;
    rc.queueCapacity = 4;
    StreamRunner runner(source, makeVisionStages(vc), rc);
    return runner.run();
}

/** Top-1 accuracy of the completed frames against the replay labels. */
double
accuracy(const StreamReport &r, const data::Dataset &dataset)
{
    std::size_t right = 0, served = 0;
    for (std::size_t i = 0; i < r.predictions.size(); ++i) {
        if (r.predictions[i] == -1)
            continue;
        ++served;
        if (r.predictions[i] == dataset.labels[i % dataset.size()])
            ++right;
    }
    return served ? static_cast<double>(right) /
                        static_cast<double>(served)
                  : 0.0;
}

/** Trained classifier + validation set, built once (cached on disk). */
struct Trained {
    std::shared_ptr<nn::Network> net;
    data::Dataset val;

    static const Trained &
    instance()
    {
        static Trained t;
        return t;
    }

  private:
    Trained()
    {
        net = sim::pretrainedMiniGoogLeNet().net;
        val = sim::pretrainedHeldOutSet(sim::PretrainedTask::Standard);
    }
};

/**
 * Acceptance guard: with zero faults armed (an empty campaign, probe
 * and policy running) every served number — predictions and energy —
 * is bit-identical to the pre-fault-subsystem pipeline.
 */
TEST(FaultVisionTest, ZeroFaultsArmedIsBitIdentical)
{
    ShapesReplaySource source(makeReplayDataset(1, 0x5eed));
    constexpr std::uint64_t kFrames = 4;

    VisionConfig plain;
    plain.depth = 1;
    const StreamReport ref = runVision(plain, source, kFrames);

    VisionConfig armed = plain;
    armed.faults = std::make_shared<fault::FaultModel>(
        fault::FaultCampaign{}, models::kMiniInputSize);
    armed.degrade.enabled = true;
    armed.degrade.probePeriod = 2;
    const StreamReport r = runVision(armed, source, kFrames);

    ASSERT_EQ(r.framesCompleted, ref.framesCompleted);
    for (std::uint64_t i = 0; i < kFrames; ++i)
        EXPECT_EQ(r.predictions[i], ref.predictions[i])
            << "frame " << i;
    EXPECT_EQ(r.analogEnergyMeanJ, ref.analogEnergyMeanJ);
    EXPECT_EQ(r.systemEnergyMeanJ, ref.systemEnergyMeanJ);
    EXPECT_EQ(r.framesFailed, 0u);
}

/**
 * The acceptance scenario: a dead-column campaign severe enough to
 * wreck the uncompensated pipeline; the probe + remap policy must
 * recover at least 90% of the fault-free accuracy.
 */
TEST(FaultVisionTest, RemapRecoversAccuracyUnderDeadColumns)
{
    const Trained &t = Trained::instance();
    ShapesReplaySource source(t.val);
    constexpr std::uint64_t kFrames = 48;

    VisionConfig clean;
    clean.depth = 1;
    clean.weights = t.net;
    clean.sensorWorkers = 2;
    clean.deviceWorkers = 3;

    // ~25% dead columns: far past "one bad pixel", still below the
    // bypass threshold, so the policy must serve the analog path.
    auto faults = std::make_shared<fault::FaultModel>(
        fault::FaultCampaign::deadColumns(0.25),
        models::kMiniInputSize);
    ASSERT_GE(faults->deadColumnCount(), 1u)
        << "campaign must kill >= 1% of columns";
    ASSERT_LT(faults->deadColumnCount(), models::kMiniInputSize / 2);

    VisionConfig uncompensated = clean;
    uncompensated.faults = faults;

    VisionConfig degraded = uncompensated;
    degraded.degrade.enabled = true;
    degraded.degrade.probePeriod = 16;

    const double acc_clean =
        accuracy(runVision(clean, source, kFrames), t.val);
    const double acc_raw =
        accuracy(runVision(uncompensated, source, kFrames), t.val);
    const double acc_fixed =
        accuracy(runVision(degraded, source, kFrames), t.val);

    // The campaign must actually hurt, and the policy must recover.
    EXPECT_GT(acc_clean, 0.5);
    EXPECT_LT(acc_raw, 0.9 * acc_clean)
        << "clean " << acc_clean << " raw " << acc_raw;
    EXPECT_GE(acc_fixed, 0.9 * acc_clean)
        << "clean " << acc_clean << " degraded " << acc_fixed;
}

/**
 * Past the bypass threshold the policy routes around the analog
 * stage entirely: frames keep completing, served by the host's full
 * digital network at zero analog energy.
 */
TEST(FaultVisionTest, BypassKeepsServingPastMassiveFailure)
{
    const Trained &t = Trained::instance();
    ShapesReplaySource source(t.val);
    constexpr std::uint64_t kFrames = 12;

    VisionConfig vc;
    vc.depth = 1;
    vc.weights = t.net;
    vc.faults = std::make_shared<fault::FaultModel>(
        fault::FaultCampaign::deadColumns(1.0),
        models::kMiniInputSize);
    vc.degrade.enabled = true;
    vc.degrade.probePeriod = 8;

    const StreamReport r = runVision(vc, source, kFrames);
    EXPECT_EQ(r.framesCompleted, kFrames);
    EXPECT_EQ(r.analogEnergyMeanJ, 0.0); // analog stage bypassed
    EXPECT_GT(r.systemEnergyMeanJ, 0.0);
    EXPECT_GT(accuracy(r, t.val), 0.5); // full digital net serves
}

} // namespace
} // namespace stream
} // namespace redeye
