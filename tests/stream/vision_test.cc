/**
 * @file
 * End-to-end tests of the continuous-vision serving pipeline: the
 * determinism contract (frame content is a pure function of the
 * frame index, independent of worker counts and admission policy)
 * and lossless sub-saturation serving.
 */

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "stream/vision.hh"

namespace redeye {
namespace stream {
namespace {

constexpr std::uint64_t kFrames = 4;

StreamReport
runVision(FrameSource &source, std::size_t sensor_workers,
          std::size_t device_workers, AdmissionPolicy policy)
{
    VisionConfig vc;
    vc.depth = 1;
    vc.sensorWorkers = sensor_workers;
    vc.deviceWorkers = device_workers;

    RunnerConfig rc;
    rc.frames = kFrames;
    rc.queueCapacity = 4;
    rc.policy = policy;

    StreamRunner runner(source, makeVisionStages(vc), rc);
    return runner.run();
}

TEST(VisionStreamTest, DeterministicAcrossWorkersAndPolicies)
{
    ShapesReplaySource source(makeReplayDataset(1, 0x5eed));

    // Reference: serial workers, lossless admission.
    const StreamReport ref =
        runVision(source, 1, 1, AdmissionPolicy::Block);
    EXPECT_EQ(ref.framesOffered, kFrames);
    EXPECT_EQ(ref.framesDropped, 0u); // Block never drops
    EXPECT_EQ(ref.framesCompleted, kFrames);
    ASSERT_EQ(ref.predictions.size(), kFrames);
    for (std::uint64_t i = 0; i < kFrames; ++i) {
        EXPECT_GE(ref.predictions[i], 0);
        EXPECT_LT(ref.predictions[i],
                  static_cast<std::int32_t>(data::kShapeClasses));
    }
    EXPECT_GT(ref.analogEnergyMeanJ, 0.0);
    EXPECT_GT(ref.systemEnergyMeanJ, ref.analogEnergyMeanJ);

    // More workers, different admission policies: every completed
    // frame index must classify bit-identically.
    const StreamReport threaded =
        runVision(source, 2, 2, AdmissionPolicy::Block);
    EXPECT_EQ(threaded.framesCompleted, kFrames);
    for (std::uint64_t i = 0; i < kFrames; ++i)
        EXPECT_EQ(threaded.predictions[i], ref.predictions[i])
            << "frame " << i;

    const StreamReport dropping =
        runVision(source, 1, 2, AdmissionPolicy::DropOldest);
    for (std::uint64_t i = 0; i < kFrames; ++i) {
        if (dropping.predictions[i] != -1)
            EXPECT_EQ(dropping.predictions[i], ref.predictions[i])
                << "frame " << i;
    }
}

TEST(VisionStreamTest, ReportsStageBreakdown)
{
    ShapesReplaySource source(makeReplayDataset(1, 0x5eed));
    const StreamReport r =
        runVision(source, 1, 1, AdmissionPolicy::Block);
    ASSERT_EQ(r.stages.size(), 3u);
    EXPECT_EQ(r.stages[0].name, "sensor");
    EXPECT_EQ(r.stages[1].name, "redeye");
    EXPECT_EQ(r.stages[2].name, "host");
    for (const StageReport &s : r.stages) {
        EXPECT_EQ(s.processed, kFrames);
        EXPECT_GT(s.serviceMeanS, 0.0);
    }
    EXPECT_GE(r.latencyP99S, r.latencyP50S);
    EXPECT_GT(r.sustainedFps, 0.0);
}

/**
 * The batched host tail classifies every frame exactly as the
 * serial unbatched host does, regardless of batch size, wait budget
 * or host thread count: batch membership and padding rows never
 * leak into a neighbouring frame's logits, and the per-bucket tail
 * replicas share the full network's weights.
 */
TEST(VisionStreamTest, BatchedHostTailMatchesUnbatched)
{
    constexpr std::uint64_t kBatchFrames = 12;
    ShapesReplaySource source(makeReplayDataset(1, 0x5eed));

    auto serve = [&](std::size_t batch, std::size_t threads,
                     double wait_s) {
        VisionConfig vc;
        vc.depth = 1;
        vc.deviceWorkers = 2;
        vc.hostBatch = batch;
        vc.hostThreads = threads;
        vc.hostBatchWaitS = wait_s;
        RunnerConfig rc;
        rc.frames = kBatchFrames;
        rc.queueCapacity = 8;
        rc.policy = AdmissionPolicy::Block;
        StreamRunner runner(source, makeVisionStages(vc), rc);
        return runner.run();
    };

    const StreamReport ref = serve(1, 1, 0.0);
    EXPECT_EQ(ref.framesCompleted, kBatchFrames);

    struct Case {
        std::size_t batch, threads;
        double waitS;
    };
    for (const Case &c : {Case{4, 1, 0.01}, Case{4, 2, 0.01},
                          Case{3, 2, 0.0}, Case{8, 2, 0.02}}) {
        const StreamReport r = serve(c.batch, c.threads, c.waitS);
        EXPECT_EQ(r.framesCompleted, kBatchFrames)
            << "batch " << c.batch;
        ASSERT_EQ(r.predictions.size(), ref.predictions.size());
        for (std::uint64_t i = 0; i < kBatchFrames; ++i)
            EXPECT_EQ(r.predictions[i], ref.predictions[i])
                << "batch " << c.batch << " threads " << c.threads
                << " frame " << i;
        // Energy accounting is per frame and batch-invariant; the
        // mean is accumulated in completion order, which varies with
        // host-thread timing, so allow summation-order rounding.
        EXPECT_NEAR(r.systemEnergyMeanJ, ref.systemEnergyMeanJ,
                    1e-9 * ref.systemEnergyMeanJ);
        // The host stage reports its coalescing.
        ASSERT_EQ(r.stages.size(), 3u);
        if (c.batch > 1) {
            EXPECT_GT(r.stages[2].batches, 0u);
            EXPECT_LE(r.stages[2].batchMax, c.batch);
        }
    }
}

TEST(VisionStreamTest, RejectsBadDepth)
{
    VisionConfig vc;
    vc.depth = 0;
    EXPECT_EXIT(makeVisionStages(vc), ::testing::ExitedWithCode(1),
                "depth");
    vc.depth = 6;
    EXPECT_EXIT(makeVisionStages(vc), ::testing::ExitedWithCode(1),
                "depth");
}

TEST(VisionStreamTest, RejectsBadHostBatchWait)
{
    // Reaches the host stage's integer batch wait (stream_serving
    // --batch-wait parses "nan", "inf" and "1e10").
    VisionConfig vc;
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             1e10}) {
        vc.hostBatchWaitS = bad;
        EXPECT_EXIT(makeVisionStages(vc), ::testing::ExitedWithCode(1),
                    "hostBatchWaitS")
            << bad;
    }
}

} // namespace
} // namespace stream
} // namespace redeye
