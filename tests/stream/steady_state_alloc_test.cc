/**
 * @file
 * The zero-allocation steady-state invariant, asserted end to end:
 * after a warmup prefix (frame-pool priming, tensor capacity
 * establishment, arena growth, plan-cache misses) the full streaming
 * pipeline — source refill, bounded queues, sensor sampling, device
 * stage, host classification, metrics — serves every further frame
 * without a single heap allocation anywhere in the process.
 *
 * This binary links the `reallocspy` counting allocator
 * (core/alloc.hh); when the hooks are compiled out (sanitizer
 * builds) the allocation assertions skip and only the bit-identity
 * checks run.
 *
 * The device stage is forced into analog Bypass (a 100% dead-column
 * campaign with the degradation policy armed): the bypass path is
 * the steady-state-critical one — it hands raw frames to the host's
 * full digital network, exercising the workspace-backed ConvNet
 * execution on every frame.
 */

#include <atomic>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "core/alloc.hh"
#include "core/exec.hh"
#include "core/rng.hh"
#include "core/workspace.hh"
#include "models/mini_googlenet.hh"
#include "nn/conv.hh"
#include "nn/pool.hh"
#include "redeye/column.hh"
#include "stream/vision.hh"

namespace redeye {
namespace stream {
namespace {

constexpr std::uint64_t kFrames = 64;
constexpr std::uint64_t kWarmupFrames = 48;

/**
 * Completion monitor appended to the last stage's worker: restarts
 * the meter at the warmup boundary and captures the steady-state
 * allocation delta at the final frame. The host stage runs a single
 * worker, so the callbacks are serialized and the measurement window
 * is well defined. ThreadPool construction and teardown allocate, so
 * the window must live entirely *inside* one run — which is exactly
 * what serving a warmup prefix within the run achieves.
 */
struct CompletionMonitor {
    alloc::AllocationMeter meter;
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> steadyAllocs{0};

    void
    onServed()
    {
        const std::uint64_t n = served.fetch_add(1) + 1;
        if (n == kWarmupFrames)
            meter.restart();
        else if (n == kFrames)
            steadyAllocs.store(meter.delta());
    }
};

struct SteadyRun {
    StreamReport report;
    std::uint64_t steadyAllocs = 0; ///< frames warm..last
    std::uint64_t runAllocs = 0;    ///< whole run, warmup included
};

/** Host-side serving shape of a metered run. */
struct HostOptions {
    std::size_t batch = 1;   ///< VisionConfig::hostBatch
    std::size_t threads = 1; ///< VisionConfig::hostThreads
    double waitS = 0.0;      ///< VisionConfig::hostBatchWaitS
};

/** Serve kFrames through the bypassed pipeline, metering the tail. */
SteadyRun
serveBypassed(std::size_t device_workers, HostOptions host = {})
{
    VisionConfig vc;
    vc.depth = 1;
    vc.deviceWorkers = device_workers;
    vc.hostBatch = host.batch;
    vc.hostThreads = host.threads;
    vc.hostBatchWaitS = host.waitS;
    // Hardware past saving: every epoch's plan is Bypass, and one
    // huge probe period keeps the whole run in epoch 0 so the single
    // plan computation lands in warmup.
    vc.faults = std::make_shared<fault::FaultModel>(
        fault::FaultCampaign::deadColumns(1.0),
        models::kMiniInputSize);
    vc.degrade.enabled = true;
    vc.degrade.probePeriod = std::uint64_t{1} << 20;

    ShapesReplaySource source(makeReplayDataset(2, 0x5eed));

    auto stages = makeVisionStages(vc);
    auto monitor = std::make_shared<CompletionMonitor>();
    if (stages.back().makeBatchWorker) {
        auto inner_factory = stages.back().makeBatchWorker;
        stages.back().makeBatchWorker =
            [inner_factory, monitor](std::size_t worker) {
                auto inner = inner_factory(worker);
                return [inner,
                        monitor](std::vector<StreamFrame> &batch) {
                    inner(batch);
                    for (std::size_t i = 0; i < batch.size(); ++i)
                        monitor->onServed();
                };
            };
    } else {
        auto inner_factory = stages.back().makeWorker;
        stages.back().makeWorker = [inner_factory,
                                    monitor](std::size_t worker) {
            auto inner = inner_factory(worker);
            return [inner, monitor](StreamFrame &frame) {
                inner(frame);
                monitor->onServed();
            };
        };
    }

    RunnerConfig rc;
    rc.frames = kFrames;
    rc.queueCapacity = 4;
    rc.policy = AdmissionPolicy::Block; // lossless: all frames serve

    alloc::AllocationMeter whole_run;
    StreamRunner runner(source, std::move(stages), rc);
    SteadyRun out;
    out.report = runner.run();
    out.runAllocs = whole_run.delta();
    out.steadyAllocs = monitor->steadyAllocs.load();
    return out;
}

void
expectServedAndBypassed(const StreamReport &r)
{
    EXPECT_EQ(r.framesCompleted, kFrames);
    EXPECT_EQ(r.framesDropped, 0u);
    EXPECT_EQ(r.framesFailed, 0u);
    // Bypass engaged: no analog energy was spent on any frame.
    EXPECT_EQ(r.analogEnergyMeanJ, 0.0);
}

TEST(SteadyStateAllocTest, SerialPipelineIsAllocationFree)
{
    const SteadyRun run = serveBypassed(1);
    expectServedAndBypassed(run.report);

    if (!alloc::countingAvailable())
        GTEST_SKIP() << "allocation hooks not linked (sanitizer "
                        "build?); skipping the counting assertions";

    // The instrument works: warmup itself allocates plenty.
    EXPECT_GT(run.runAllocs, 0u);
    // The invariant: not one heap allocation in the steady window.
    EXPECT_EQ(run.steadyAllocs, 0u);
}

TEST(SteadyStateAllocTest, ThreadedPipelineIsAllocationFree)
{
    const SteadyRun serial = serveBypassed(1);
    const SteadyRun threaded = serveBypassed(4);
    expectServedAndBypassed(threaded.report);

    // Worker count must not change a single served bit.
    ASSERT_EQ(threaded.report.predictions.size(),
              serial.report.predictions.size());
    for (std::size_t i = 0; i < serial.report.predictions.size(); ++i)
        EXPECT_EQ(threaded.report.predictions[i],
                  serial.report.predictions[i])
            << "frame " << i;
    EXPECT_EQ(threaded.report.systemEnergyMeanJ,
              serial.report.systemEnergyMeanJ);

    if (!alloc::countingAvailable())
        GTEST_SKIP() << "allocation hooks not linked (sanitizer "
                        "build?); skipping the counting assertions";

    EXPECT_EQ(threaded.steadyAllocs, 0u);
}

/**
 * Dynamic batching + intra-frame GEMM parallelism keep the
 * invariant: the batching stage coalesces from persistent storage,
 * the host worker's private pool hands out work through FunctionRef
 * (no closure boxing), and pack panels come from pre-warmed
 * Workspace lane arenas — so a batched, threaded host serves the
 * steady window without touching the heap, and still produces the
 * exact bits of the serial unbatched run.
 */
TEST(SteadyStateAllocTest, BatchedThreadedPipelineIsAllocationFree)
{
    const SteadyRun serial = serveBypassed(1);
    HostOptions host;
    host.batch = 4;
    host.threads = 2;
    host.waitS = 0.002;
    const SteadyRun batched = serveBypassed(4, host);
    expectServedAndBypassed(batched.report);

    ASSERT_EQ(batched.report.predictions.size(),
              serial.report.predictions.size());
    for (std::size_t i = 0; i < serial.report.predictions.size(); ++i)
        EXPECT_EQ(batched.report.predictions[i],
                  serial.report.predictions[i])
            << "frame " << i;

    if (!alloc::countingAvailable())
        GTEST_SKIP() << "allocation hooks not linked (sanitizer "
                        "build?); skipping the counting assertions";

    EXPECT_EQ(batched.steadyAllocs, 0u);
}

/**
 * The batched bucket tails directly: a bypass campaign never runs
 * the host's batch-shaped tail replicas, so meter a batched,
 * threaded, workspace-backed Network forward on its own. After the
 * first forward establishes activation plans and arena capacity,
 * further forwards of the same batch extent must not allocate.
 */
TEST(SteadyStateAllocTest, BatchedThreadedNetworkForwardIsAllocationFree)
{
    Rng weights(0x90091e5);
    auto net = models::buildMiniGoogLeNet(10, weights);

    constexpr std::size_t kBatch = 4;
    Tensor x(Shape(kBatch, 3, models::kMiniInputSize,
                   models::kMiniInputSize));
    Rng pixels(0x1447);
    x.fillGaussian(pixels, 0.5f, 0.25f);

    ThreadPool pool(2);
    Workspace ws(pool.threads());
    ExecContext ctx(pool);
    ctx.setWorkspace(&ws);

    net->forward(x, ctx); // plans + arena growth
    net->forward(x, ctx); // any second-pass lazy state

    if (!alloc::countingAvailable())
        GTEST_SKIP() << "allocation hooks not linked (sanitizer "
                        "build?); skipping the counting assertions";

    alloc::AllocationMeter meter;
    net->forward(x, ctx);
    EXPECT_EQ(meter.delta(), 0u)
        << "batched threaded forward allocated in steady state";
}

/**
 * The column kernels keep every buffer, the lane tallies and the
 * readVar memo included, in their thread's scratch: once warm, a
 * conv1, pool1 or readout call allocates only the tensor it returns,
 * on pristine silicon and with every fault kind armed.
 */
TEST(SteadyStateAllocTest, WarmColumnKernelsAllocateOnlyTheirOutput)
{
    Rng rng(0xa110c);
    nn::ConvolutionLayer conv("conv1",
                              nn::ConvParams::square(32, 5, 1, 2));
    const nn::MaxPoolLayer pool("pool1", nn::PoolParams{3, 2, 0});
    Tensor x(
        Shape(1, 3, models::kMiniInputSize, models::kMiniInputSize));
    x.fillUniform(rng, 0.0f, 1.0f);
    (void)conv.outputShape({x.shape()});
    conv.initHe(rng);

    fault::FaultCampaign every;
    every.deadColumnRate = 0.1;
    every.offsetColumnRate = 0.1;
    every.memoryLeakRate = 0.1;
    every.stuckWeightBitRate = 0.2;
    every.comparatorOffsetRate = 0.1;
    every.adcStuckBitRate = 0.2;
    const fault::FaultModel model(every, models::kMiniInputSize);

    const fault::FaultModel *campaigns[] = {nullptr, &model};
    for (const fault::FaultModel *faults : campaigns) {
        arch::ColumnArrayConfig cfg;
        cfg.columns = models::kMiniInputSize;
        arch::ColumnArray array(cfg, analog::ProcessParams::typical(),
                                Rng(7));
        array.armFaults(faults, 0);
        // Warm-up: one call each sizes every scratch buffer.
        const Tensor c = array.runConvolution(x, conv, true);
        const Tensor p = array.runMaxPool(c, pool);
        (void)array.runQuantization(p);

        if (!alloc::countingAvailable())
            GTEST_SKIP() << "allocation hooks not linked (sanitizer "
                            "build?); skipping the counting assertions";
        alloc::AllocationMeter meter;
        (void)array.runConvolution(x, conv, true);
        EXPECT_EQ(meter.delta(), 1u) << "conv, faults " << !!faults;
        meter.restart();
        (void)array.runMaxPool(c, pool);
        EXPECT_EQ(meter.delta(), 1u) << "pool, faults " << !!faults;
        meter.restart();
        (void)array.runQuantization(p);
        EXPECT_EQ(meter.delta(), 1u) << "readout, faults " << !!faults;
    }
}

} // namespace
} // namespace stream
} // namespace redeye
