/**
 * @file
 * StreamRunner: a bounded multi-stage streaming pipeline.
 *
 * One source worker paces frames out of a FrameSource according to an
 * ArrivalSchedule and admits them into the first bounded queue under
 * a configurable admission policy; each stage's workers pop from
 * their inbound queue, apply the stage function, and push downstream
 * with blocking backpressure. All workers are long-lived chunks of a
 * single ThreadPool::run() call (core/exec.hh), so the runtime reuses
 * the repo's pooled-execution substrate rather than raw threads.
 *
 * ## Backpressure and drop semantics
 *
 * Only the admission queue drops frames; inter-stage pushes always
 * block. A slow stage therefore fills the queues behind it until the
 * pressure reaches admission, where the policy decides: Block turns
 * the source into a closed loop (no drops, arrival pacing slips),
 * DropNewest rejects the arriving frame, DropOldest evicts the
 * stalest admitted-but-unserved frame. In both drop modes the queue
 * bound caps the queueing delay of every admitted frame, so tail
 * latency stays bounded past saturation.
 *
 * ## Determinism contract
 *
 * Frame *content* (pixels, features, predictions, energies) is a pure
 * function of the frame index: sources and stages key all their
 * randomness with counter-based streams (core/rng.hh). Which frames
 * complete, and all timing metrics, depend on real-time scheduling —
 * only the content of a completed frame index is reproducible.
 *
 * ## Shutdown and drain
 *
 * The source closes the admission queue after the last frame (or as
 * soon as requestStop() is observed); each stage closes its outbound
 * queue when its last worker has drained the inbound one. run()
 * returns once every in-flight frame has either completed or been
 * dropped — a clean drain on every path. A stage function that
 * throws aborts the run: all queues close, workers unwind, and the
 * first exception is rethrown from run() (tryRun() converts it to a
 * Status instead).
 *
 * ## Dynamic batching
 *
 * A stage built with StageSpec::makeBatchWorker coalesces queued
 * frames into one worker invocation: the worker blocks for the first
 * frame, drains whatever else is already queued, then spends at most
 * StageSpec::maxBatchWaitS waiting for stragglers before serving the
 * batch (never more than maxBatch frames). The wait knob is the
 * latency budget: it bounds the extra queueing delay batching can add
 * to the first frame of a partial batch. Admission policies, the
 * frame pool and the watchdog all compose with batching — drops still
 * happen only at admission, every frame of a batch is recycled
 * individually, and the watchdog treats the batch as one unit of
 * service (a deadline overrun fails every frame in it).
 *
 * ## Watchdog
 *
 * With RunnerConfig::stageTimeoutS > 0 a watchdog thread scans the
 * per-worker hand-off slots: a frame held past the deadline is
 * immediately counted failed (StreamReport::framesFailed) and, once
 * the stalled stage function returns, dropped instead of forwarded.
 * A frame that wedges one worker therefore costs exactly that frame;
 * the remaining workers keep the pipeline live and run() still
 * drains cleanly. Stages can also surrender a frame voluntarily by
 * setting StreamFrame::failed.
 */

#ifndef REDEYE_STREAM_RUNNER_HH
#define REDEYE_STREAM_RUNNER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/queue.hh"
#include "core/status.hh"
#include "stream/frame.hh"
#include "stream/frame_source.hh"
#include "stream/metrics.hh"

namespace redeye {
namespace stream {

/** What happens when a frame arrives at a full admission queue. */
enum class AdmissionPolicy {
    Block,      ///< source blocks (closed-loop, lossless)
    DropNewest, ///< reject the arriving frame
    DropOldest, ///< evict the stalest queued frame
};

/** Name of an admission policy. */
const char *admissionPolicyName(AdmissionPolicy policy);

/**
 * Longest stage deadline or batch wait a runner accepts, in seconds
 * (about 32 years). The runner converts them to the steady clock's
 * 64-bit nanosecond count and adds them to its now, which a longer
 * duration could overflow.
 */
inline constexpr double kMaxWaitS = 1e9;

/** One pipeline stage: a name, a worker count, a worker factory. */
struct StageSpec {
    StageSpec() = default;

    /** Per-frame stage (the common case). */
    StageSpec(
        std::string stage_name, std::size_t worker_count,
        std::function<std::function<void(StreamFrame &)>(std::size_t)>
            make_worker)
        : name(std::move(stage_name)), workers(worker_count),
          makeWorker(std::move(make_worker))
    {
    }

    std::string name;
    std::size_t workers = 1;

    /**
     * Called once per worker (with the worker's index) before any
     * frame is served; returns the per-frame function that worker
     * runs. Worker-local state (network replicas, scratch) lives in
     * the returned closure. The function must derive any randomness
     * from the frame index so replicas agree (see the determinism
     * contract above). Exactly one of makeWorker / makeBatchWorker
     * must be set.
     */
    std::function<std::function<void(StreamFrame &)>(std::size_t)>
        makeWorker;

    /**
     * Dynamic-batching worker factory (exclusive with makeWorker):
     * returns a function that serves a whole coalesced batch in one
     * call (1..maxBatch frames, pipeline order). Frame content must
     * still be a pure function of each frame's index — in particular
     * independent of which frames happened to share a batch — so the
     * determinism contract survives timing-dependent coalescing.
     */
    std::function<
        std::function<void(std::vector<StreamFrame> &)>(std::size_t)>
        makeBatchWorker;

    /**
     * Largest number of queued frames one batch invocation may
     * coalesce. Only meaningful with makeBatchWorker (a batch worker
     * with maxBatch == 1 degenerates to per-frame serving).
     */
    std::size_t maxBatch = 1;

    /**
     * Latency budget of a partial batch: after popping the first
     * frame, the worker drains whatever is already queued and then
     * waits at most this long for more before serving what it has.
     * 0 = never wait (batch only what is already queued). Must be
     * in [0, kMaxWaitS].
     */
    double maxBatchWaitS = 0.0;
};

/** Runner knobs. */
struct RunnerConfig {
    std::uint64_t frames = 0;      ///< frames to offer (> 0)
    std::size_t queueCapacity = 8; ///< bound of every queue
    AdmissionPolicy policy = AdmissionPolicy::Block;
    ArrivalSchedule arrivals = ArrivalSchedule::unpaced();

    /**
     * Per-frame stage deadline in seconds; 0 disables the watchdog.
     * Must be in [0, kMaxWaitS].
     * A frame a stage holds longer than this is declared failed
     * (StreamReport::framesFailed) and dropped when the stage
     * function eventually returns; the other workers keep serving,
     * so one wedged frame can never deadlock the pipeline.
     */
    double stageTimeoutS = 0.0;

    /**
     * Completion tap: invoked once per *completed* frame (after the
     * last stage, before the frame is recycled; dropped and failed
     * frames never reach it). Runs on whichever worker finished the
     * frame, possibly several at once — the tap must be thread-safe
     * and, to preserve the steady-state allocation guarantee, must
     * not allocate (tune::FeedbackWindow::add qualifies). Empty
     * disables the tap with zero cost on the frame path.
     */
    std::function<void(const StreamFrame &)> feedbackTap;
};

/** Drives a FrameSource through pipeline stages. */
class StreamRunner
{
  public:
    /**
     * @param source Frame producer; outlives the runner.
     * @param stages Pipeline stages, in order (at least one).
     */
    StreamRunner(FrameSource &source, std::vector<StageSpec> stages,
                 RunnerConfig config);

    /**
     * Execute the run to completion (blocking) and report. May be
     * called once per runner. A stage exception aborts the run and
     * is rethrown here.
     */
    StreamReport run();

    /**
     * Like run(), but reports failure as a Status instead of
     * throwing: FailedPrecondition when the runner already ran,
     * Internal carrying the first stage exception's message.
     */
    StatusOr<StreamReport> tryRun();

    /**
     * Ask a running pipeline to stop admitting new frames and drain.
     * Safe from any thread; returns immediately.
     */
    void requestStop() { stop_.store(true); }

    /** True once requestStop() was called. */
    bool stopRequested() const { return stop_.load(); }

  private:
    using Clock = std::chrono::steady_clock;
    using Queue = BoundedQueue<StreamFrame>;

    /**
     * Watchdog hand-off slot, one per stage worker. The worker
     * publishes the frame it is serving; the watchdog thread claims
     * frames that exceed the stage deadline. Exactly one side wins
     * `claimed` per frame: if the watchdog wins it records the
     * failure and the worker drops the frame on return; if the
     * worker wins the frame proceeds normally.
     */
    struct WorkerSlot {
        std::size_t stage = 0; ///< owning stage (set once at setup)
        std::atomic<std::uint64_t> frame{0};
        std::atomic<std::int64_t> startNs{0};
        std::atomic<bool> active{false};
        std::atomic<bool> claimed{false};
    };

    void sourceLoop(StreamMetrics &metrics);
    void stageLoop(std::size_t stage, std::size_t worker,
                   WorkerSlot *slot, StreamMetrics &metrics);
    void watchdogLoop(StreamMetrics &metrics);

    /**
     * Return a retired frame's buffers to the recycling pool. Every
     * frame that leaves the pipeline — completed, failed, watchdog-
     * killed or evicted — lands here; the source pops recycled frames
     * and refills them in place (FrameSource::fill), so after warm-up
     * the frame path performs no heap allocation. Best-effort: a full
     * pool simply lets the frame's storage die.
     */
    void recycleFrame(StreamFrame &&frame);

    StreamReport runImpl();

    /** Close every queue so all workers unwind promptly. */
    void abortRun();

    void markWorkerReady();
    void waitWorkersReady(std::size_t count);

    double secondsSinceStart() const;

    FrameSource &source_;
    std::vector<StageSpec> stages_;
    RunnerConfig config_;

    std::vector<std::unique_ptr<Queue>> queues_;
    std::unique_ptr<Queue> pool_; ///< retired frames for reuse
    std::vector<std::unique_ptr<std::atomic<std::size_t>>> live_;
    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> watchdogStop_{false};
    bool started_ = false;

    std::mutex readyMutex_;
    std::condition_variable readyCv_;
    std::size_t readyCount_ = 0;

    std::mutex errorMutex_;
    std::exception_ptr firstError_;

    Clock::time_point start_;
};

} // namespace stream
} // namespace redeye

#endif // REDEYE_STREAM_RUNNER_HH
