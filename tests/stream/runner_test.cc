/** @file Tests for the streaming pipeline runner. */

#include <atomic>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.hh"
#include "stream/runner.hh"

namespace redeye {
namespace stream {
namespace {

/** Cheap synthetic source: frame i carries a 1-pixel image = i. */
class CountingSource : public FrameSource
{
  public:
    StreamFrame
    frame(std::uint64_t index) override
    {
        StreamFrame f;
        f.index = index;
        f.image =
            Tensor(Shape(1, 1, 1, 1), static_cast<float>(index));
        f.label = static_cast<std::int32_t>(index % 10);
        return f;
    }
};

/** The deterministic classification the synthetic stage computes. */
std::int32_t
expectedPrediction(std::uint64_t index)
{
    return static_cast<std::int32_t>((index * 7 + 3) % 11);
}

/** Stage that classifies from the frame's *content* (not index). */
StageSpec
classifyStage(std::size_t workers,
              std::chrono::microseconds delay =
                  std::chrono::microseconds(0))
{
    return StageSpec{
        "classify", workers, [delay](std::size_t) {
            return [delay](StreamFrame &f) {
                if (delay.count() > 0)
                    std::this_thread::sleep_for(delay);
                const auto content =
                    static_cast<std::uint64_t>(f.image[0]);
                f.predicted = expectedPrediction(content);
            };
        }};
}

/** Pass-through stage (used to build multi-stage pipelines). */
StageSpec
passStage(const std::string &name, std::size_t workers)
{
    return StageSpec{name, workers, [](std::size_t) {
                         return [](StreamFrame &) {};
                     }};
}

TEST(StreamRunnerTest, BlockPolicyCompletesEveryFrame)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 64;
    rc.queueCapacity = 2;
    rc.policy = AdmissionPolicy::Block;

    StreamRunner runner(
        source, {passStage("pre", 2), classifyStage(3)}, rc);
    const StreamReport r = runner.run();

    EXPECT_EQ(r.framesOffered, 64u);
    EXPECT_EQ(r.framesAdmitted, 64u);
    EXPECT_EQ(r.framesDropped, 0u);
    EXPECT_EQ(r.framesCompleted, 64u);
    ASSERT_EQ(r.predictions.size(), 64u);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(r.predictions[i], expectedPrediction(i));
    ASSERT_EQ(r.stages.size(), 2u);
    EXPECT_EQ(r.stages[0].processed, 64u);
    EXPECT_EQ(r.stages[1].processed, 64u);
    // Bounded queues: observed depth never exceeds the bound.
    for (const StageReport &s : r.stages)
        EXPECT_LE(s.queueDepthMax, rc.queueCapacity);
    EXPECT_GT(r.wallS, 0.0);
    EXPECT_GT(r.sustainedFps, 0.0);
}

TEST(StreamRunnerTest, SingleStagePipeline)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 16;
    StreamRunner runner(source, {classifyStage(1)}, rc);
    const StreamReport r = runner.run();
    EXPECT_EQ(r.framesCompleted, 16u);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(r.predictions[i], expectedPrediction(i));
}

TEST(StreamRunnerTest, DropNewestShedsLoadPastSaturation)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 200;
    rc.queueCapacity = 1;
    rc.policy = AdmissionPolicy::DropNewest;

    // A 1 ms service time against unpaced arrivals forces drops.
    StreamRunner runner(
        source,
        {classifyStage(1, std::chrono::microseconds(1000))}, rc);
    const StreamReport r = runner.run();

    EXPECT_EQ(r.framesOffered, 200u);
    EXPECT_GT(r.framesDropped, 0u);
    EXPECT_EQ(r.framesAdmitted + r.framesDropped, r.framesOffered);
    EXPECT_EQ(r.framesCompleted, r.framesAdmitted);
    // Dropped frames stay -1; completed ones carry the right class.
    for (std::uint64_t i = 0; i < 200; ++i) {
        if (r.predictions[i] != -1)
            EXPECT_EQ(r.predictions[i], expectedPrediction(i));
    }
}

TEST(StreamRunnerTest, DropOldestAdmitsAllEvictsStalest)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 200;
    rc.queueCapacity = 1;
    rc.policy = AdmissionPolicy::DropOldest;

    StreamRunner runner(
        source,
        {classifyStage(1, std::chrono::microseconds(1000))}, rc);
    const StreamReport r = runner.run();

    EXPECT_EQ(r.framesOffered, 200u);
    EXPECT_EQ(r.framesAdmitted, 200u); // every arrival is admitted
    EXPECT_GT(r.framesDropped, 0u);    // ... by evicting stale ones
    EXPECT_EQ(r.framesCompleted + r.framesDropped, r.framesAdmitted);
    // The newest frame is never evicted, so the last index survives.
    EXPECT_EQ(r.predictions[199], expectedPrediction(199));
    for (std::uint64_t i = 0; i < 200; ++i) {
        if (r.predictions[i] != -1)
            EXPECT_EQ(r.predictions[i], expectedPrediction(i));
    }
}

TEST(StreamRunnerTest, ContentIdenticalAcrossWorkerCountsAndPolicies)
{
    // The reference: serial, lossless.
    CountingSource source;
    RunnerConfig ref_rc;
    ref_rc.frames = 128;
    StreamRunner ref_runner(source, {classifyStage(1)}, ref_rc);
    const StreamReport ref = ref_runner.run();

    struct Config {
        std::size_t workers;
        AdmissionPolicy policy;
    };
    for (const Config &cfg :
         {Config{4, AdmissionPolicy::Block},
          Config{2, AdmissionPolicy::DropNewest},
          Config{3, AdmissionPolicy::DropOldest}}) {
        CountingSource src;
        RunnerConfig rc;
        rc.frames = 128;
        rc.queueCapacity = 2;
        rc.policy = cfg.policy;
        StreamRunner runner(src, {classifyStage(cfg.workers)}, rc);
        const StreamReport r = runner.run();
        // Which frames complete may differ; their content may not.
        for (std::uint64_t i = 0; i < 128; ++i) {
            if (r.predictions[i] != -1)
                EXPECT_EQ(r.predictions[i], ref.predictions[i])
                    << "frame " << i << " with "
                    << admissionPolicyName(cfg.policy);
        }
    }
}

TEST(StreamRunnerTest, RequestStopDrainsCleanly)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 1000000; // far more than the run will offer
    rc.queueCapacity = 1;

    StreamRunner *active = nullptr;
    StageSpec stop_stage{
        "stopper", 1, [&active](std::size_t) {
            return [&active](StreamFrame &f) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                if (f.index >= 3)
                    active->requestStop();
            };
        }};

    StreamRunner runner(source, {stop_stage}, rc);
    active = &runner;
    const StreamReport r = runner.run();

    EXPECT_TRUE(runner.stopRequested());
    EXPECT_LT(r.framesOffered, 1000000u); // stopped early
    EXPECT_GE(r.framesCompleted, 4u);     // saw index 3
    EXPECT_EQ(r.framesCompleted, r.framesAdmitted);
}

TEST(StreamRunnerTest, StageExceptionPropagatesAndUnwinds)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 50;
    rc.queueCapacity = 2;

    StageSpec faulty{"faulty", 2, [](std::size_t) {
                         return [](StreamFrame &f) {
                             if (f.index == 5)
                                 throw std::runtime_error(
                                     "injected stage fault");
                         };
                     }};
    StreamRunner runner(source,
                        {passStage("pre", 1), faulty,
                         passStage("post", 1)},
                        rc);
    EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(StreamRunnerTest, WorkerFactoryExceptionPropagates)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 10;
    StageSpec bad{"bad", 1,
                  [](std::size_t) -> std::function<void(StreamFrame &)> {
                      throw std::runtime_error("no worker for you");
                  }};
    StreamRunner runner(source, {bad}, rc);
    EXPECT_THROW(runner.run(), std::runtime_error);
}

TEST(StreamRunnerTest, RejectsBadConfigs)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 1;
    EXPECT_EXIT(StreamRunner(source, {}, rc),
                ::testing::ExitedWithCode(1), "stage");

    RunnerConfig no_frames;
    no_frames.frames = 0;
    EXPECT_EXIT(StreamRunner(source, {passStage("a", 1)}, no_frames),
                ::testing::ExitedWithCode(1), "frame");

    EXPECT_EXIT(StreamRunner(source, {passStage("a", 0)}, rc),
                ::testing::ExitedWithCode(1), "worker");

    // A NaN deadline would switch the watchdog off unseen; a NaN wait,
    // and +inf or a finite overlong value for either, would overflow
    // an integer duration.
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             1e10, std::numeric_limits<double>::max()}) {
        RunnerConfig timeout = rc;
        timeout.stageTimeoutS = bad;
        EXPECT_EXIT(StreamRunner(source, {passStage("a", 1)}, timeout),
                    ::testing::ExitedWithCode(1), "stageTimeoutS")
            << bad;
        StageSpec waiting = passStage("a", 1);
        waiting.maxBatchWaitS = bad;
        EXPECT_EXIT(StreamRunner(source, {waiting}, rc),
                    ::testing::ExitedWithCode(1), "maxBatchWaitS")
            << bad;
    }

    // The bound itself is accepted.
    RunnerConfig longest = rc;
    longest.stageTimeoutS = kMaxWaitS;
    StageSpec waiting = passStage("a", 1);
    waiting.maxBatchWaitS = kMaxWaitS;
    StreamRunner accepted(source, {waiting}, longest);
}

TEST(StreamRunnerTest, WatchdogFailsStalledFrameWithoutDeadlock)
{
    // Frame 2 wedges its worker for far longer than the stage
    // deadline; the watchdog must declare it failed while the second
    // worker keeps the pipeline live, and the run must still drain.
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 12;
    rc.queueCapacity = 2;
    rc.stageTimeoutS = 0.05;

    StageSpec stalling{
        "stall", 2, [](std::size_t) {
            return [](StreamFrame &f) {
                if (f.index == 2) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(400));
                }
                const auto content =
                    static_cast<std::uint64_t>(f.image[0]);
                f.predicted = expectedPrediction(content);
            };
        }};
    StreamRunner runner(source, {stalling}, rc);
    const StreamReport r = runner.run();

    // The wedged frame is failed, never completed; a loaded machine
    // (e.g. sanitizer runs) may push other frames past the deadline
    // too, so only frame 2's fate is asserted exactly.
    EXPECT_EQ(r.framesAdmitted, 12u);
    EXPECT_GE(r.framesFailed, 1u);
    EXPECT_EQ(r.framesCompleted + r.framesFailed, 12u);
    EXPECT_EQ(r.predictions[2], -1); // failed, never forwarded
    for (std::uint64_t i = 0; i < 12; ++i) {
        if (r.predictions[i] != -1)
            EXPECT_EQ(r.predictions[i], expectedPrediction(i));
    }
}

TEST(StreamRunnerTest, WatchdogDisabledToleratesSlowFrames)
{
    // With no deadline configured a slow frame is simply served.
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 4;
    StreamRunner runner(
        source, {classifyStage(1, std::chrono::microseconds(20000))},
        rc);
    const StreamReport r = runner.run();
    EXPECT_EQ(r.framesFailed, 0u);
    EXPECT_EQ(r.framesCompleted, 4u);
}

TEST(StreamRunnerTest, StageCanSurrenderAFrame)
{
    // A stage marks a frame failed (e.g. its device rejected the
    // input); the frame is counted and dropped, the rest complete.
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 16;
    StageSpec surrendering{
        "surrender", 1, [](std::size_t) {
            return [](StreamFrame &f) {
                if (f.index == 5) {
                    f.failed = true;
                    return;
                }
                const auto content =
                    static_cast<std::uint64_t>(f.image[0]);
                f.predicted = expectedPrediction(content);
            };
        }};
    StreamRunner runner(source, {surrendering}, rc);
    const StreamReport r = runner.run();

    EXPECT_EQ(r.framesFailed, 1u);
    EXPECT_EQ(r.framesCompleted, 15u);
    EXPECT_EQ(r.predictions[5], -1);
    for (std::uint64_t i = 0; i < 16; ++i) {
        if (i != 5)
            EXPECT_EQ(r.predictions[i], expectedPrediction(i));
    }
}

TEST(StreamRunnerTest, TryRunReportsStageExceptionAsStatus)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 20;
    StageSpec faulty{"faulty", 1, [](std::size_t) {
                         return [](StreamFrame &f) {
                             if (f.index == 3)
                                 throw std::runtime_error(
                                     "injected stage fault");
                         };
                     }};
    StreamRunner runner(source, {faulty}, rc);
    const auto r = runner.tryRun();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::Internal);
    EXPECT_NE(r.status().message().find("injected stage fault"),
              std::string::npos);
}

TEST(StreamRunnerTest, TryRunRejectsSecondRun)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 2;
    StreamRunner runner(source, {classifyStage(1)}, rc);
    const auto first = runner.tryRun();
    ASSERT_TRUE(first.ok()) << first.status().str();
    EXPECT_EQ(first->framesCompleted, 2u);

    const auto second = runner.tryRun();
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(),
              StatusCode::FailedPrecondition);
}

/** Batched classify stage: same function as classifyStage, but the
 * worker receives coalesced frame vectors. */
StageSpec
batchedClassifyStage(std::size_t workers, std::size_t max_batch,
                     double wait_s,
                     std::chrono::microseconds delay =
                         std::chrono::microseconds(0))
{
    StageSpec spec;
    spec.name = "classify";
    spec.workers = workers;
    spec.maxBatch = max_batch;
    spec.maxBatchWaitS = wait_s;
    spec.makeBatchWorker = [delay](std::size_t) {
        return [delay](std::vector<StreamFrame> &batch) {
            if (delay.count() > 0)
                std::this_thread::sleep_for(delay);
            for (StreamFrame &f : batch) {
                const auto content =
                    static_cast<std::uint64_t>(f.image[0]);
                f.predicted = expectedPrediction(content);
            }
        };
    };
    return spec;
}

TEST(StreamRunnerTest, BatchedStageCoalescesAndServesEveryFrame)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 64;
    rc.queueCapacity = 8;
    rc.policy = AdmissionPolicy::Block;

    // A small service delay lets the queue back up so the worker has
    // something to coalesce beyond singletons.
    StreamRunner runner(source,
                        {batchedClassifyStage(
                            1, 4, 0.05,
                            std::chrono::microseconds(500))},
                        rc);
    const StreamReport r = runner.run();

    EXPECT_EQ(r.framesCompleted, 64u);
    EXPECT_EQ(r.framesDropped, 0u);
    EXPECT_EQ(r.framesFailed, 0u);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(r.predictions[i], expectedPrediction(i));

    ASSERT_EQ(r.stages.size(), 1u);
    const StageReport &s = r.stages[0];
    // `processed` still counts frames; the batch columns describe
    // the coalescing.
    EXPECT_EQ(s.processed, 64u);
    EXPECT_GT(s.batches, 0u);
    EXPECT_LE(s.batches, 64u);
    EXPECT_LE(s.batchMax, 4u);
    EXPECT_GE(s.batchMean, 1.0);
    // Frame conservation: mean * batches == frames served.
    EXPECT_NEAR(s.batchMean * static_cast<double>(s.batches), 64.0,
                1e-6);
    // The delay plus wait budget guarantees at least one multi-frame
    // batch formed.
    EXPECT_GE(s.batchMax, 2u);
}

TEST(StreamRunnerTest, BatchSizeOneBehavesLikeUnbatchedStage)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 16;
    StreamRunner runner(source, {batchedClassifyStage(1, 1, 0.0)},
                        rc);
    const StreamReport r = runner.run();
    EXPECT_EQ(r.framesCompleted, 16u);
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(r.predictions[i], expectedPrediction(i));
    ASSERT_EQ(r.stages.size(), 1u);
    EXPECT_EQ(r.stages[0].processed, 16u);
    EXPECT_EQ(r.stages[0].batchMax, 1u);
}

TEST(StreamRunnerTest, BatchedStageFrameFailuresStayPerFrame)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 32;
    rc.queueCapacity = 8;
    rc.policy = AdmissionPolicy::Block;

    // Fail frames whose content is divisible by 5; batch membership
    // must not drag neighbours down with them.
    StageSpec spec;
    spec.name = "classify";
    spec.workers = 1;
    spec.maxBatch = 4;
    spec.maxBatchWaitS = 0.05;
    spec.makeBatchWorker = [](std::size_t) {
        return [](std::vector<StreamFrame> &batch) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(500));
            for (StreamFrame &f : batch) {
                const auto content =
                    static_cast<std::uint64_t>(f.image[0]);
                if (content % 5 == 0)
                    f.failed = true;
                else
                    f.predicted = expectedPrediction(content);
            }
        };
    };
    StreamRunner runner(source, {spec}, rc);
    const StreamReport r = runner.run();

    EXPECT_EQ(r.framesFailed, 7u); // 0,5,10,15,20,25,30
    EXPECT_EQ(r.framesCompleted, 25u);
    for (std::uint64_t i = 0; i < 32; ++i) {
        if (i % 5 == 0)
            EXPECT_EQ(r.predictions[i], -1) << "frame " << i;
        else
            EXPECT_EQ(r.predictions[i], expectedPrediction(i))
                << "frame " << i;
    }
}

TEST(StreamRunnerTest, BatchedStageComposesWithDownstreamStage)
{
    CountingSource source;
    RunnerConfig rc;
    rc.frames = 48;
    rc.queueCapacity = 6;
    rc.policy = AdmissionPolicy::Block;

    // Batched middle stage between two plain stages: frames must
    // re-individualize cleanly into the downstream queue.
    StageSpec mid;
    mid.name = "mid";
    mid.workers = 2;
    mid.maxBatch = 3;
    mid.maxBatchWaitS = 0.02;
    mid.makeBatchWorker = [](std::size_t) {
        return [](std::vector<StreamFrame> &batch) {
            for (StreamFrame &f : batch)
                f.image[0] += 0.0f; // touch, don't change
        };
    };
    StreamRunner runner(
        source, {passStage("pre", 1), mid, classifyStage(1)}, rc);
    const StreamReport r = runner.run();

    EXPECT_EQ(r.framesCompleted, 48u);
    EXPECT_EQ(r.framesDropped, 0u);
    for (std::uint64_t i = 0; i < 48; ++i)
        EXPECT_EQ(r.predictions[i], expectedPrediction(i));
    ASSERT_EQ(r.stages.size(), 3u);
    EXPECT_EQ(r.stages[1].processed, 48u);
    EXPECT_LE(r.stages[1].batchMax, 3u);
}

TEST(StreamRunnerTest, PolicyNames)
{
    EXPECT_STREQ(admissionPolicyName(AdmissionPolicy::Block),
                 "block");
    EXPECT_STREQ(admissionPolicyName(AdmissionPolicy::DropNewest),
                 "drop-newest");
    EXPECT_STREQ(admissionPolicyName(AdmissionPolicy::DropOldest),
                 "drop-oldest");
}

} // namespace
} // namespace stream
} // namespace redeye
