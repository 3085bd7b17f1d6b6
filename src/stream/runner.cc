#include "stream/runner.hh"

#include <algorithm>
#include <thread>

#include "core/exec.hh"
#include "core/logging.hh"

namespace redeye {
namespace stream {

namespace {

/** Seconds between two steady-clock points. */
double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
      case AdmissionPolicy::Block:
        return "block";
      case AdmissionPolicy::DropNewest:
        return "drop-newest";
      case AdmissionPolicy::DropOldest:
        return "drop-oldest";
    }
    return "?";
}

StreamRunner::StreamRunner(FrameSource &source,
                           std::vector<StageSpec> stages,
                           RunnerConfig config)
    : source_(source), stages_(std::move(stages)), config_(config)
{
    fatal_if(stages_.empty(), "pipeline needs at least one stage");
    fatal_if(config_.frames == 0, "run needs at least one frame");
    // Written so that NaN fails too: it would silently turn the
    // watchdog off, and an overlong deadline would overflow its
    // integer nanoseconds.
    fatal_if(!(config_.stageTimeoutS >= 0.0 &&
               config_.stageTimeoutS <= kMaxWaitS),
             "stageTimeoutS must be in [0, ", kMaxWaitS, "] s, got ",
             config_.stageTimeoutS);
    for (const StageSpec &s : stages_) {
        fatal_if(s.workers == 0, "stage '", s.name,
                 "' needs at least one worker");
        fatal_if(!s.makeWorker && !s.makeBatchWorker, "stage '",
                 s.name, "' has no worker factory");
        fatal_if(s.makeWorker && s.makeBatchWorker, "stage '", s.name,
                 "' has both a per-frame and a batch worker factory");
        fatal_if(s.maxBatch == 0, "stage '", s.name,
                 "': maxBatch must be positive");
        fatal_if(s.maxBatch > 1 && !s.makeBatchWorker, "stage '",
                 s.name, "': maxBatch > 1 needs a batch worker");
        fatal_if(!(s.maxBatchWaitS >= 0.0 && s.maxBatchWaitS <= kMaxWaitS),
                 "stage '", s.name, "': maxBatchWaitS must be in [0, ",
                 kMaxWaitS, "] s, got ", s.maxBatchWaitS);
    }
}

double
StreamRunner::secondsSinceStart() const
{
    return secondsBetween(start_, Clock::now());
}

void
StreamRunner::abortRun()
{
    stop_.store(true);
    for (auto &q : queues_)
        q->close();
}

void
StreamRunner::markWorkerReady()
{
    {
        std::lock_guard<std::mutex> lock(readyMutex_);
        ++readyCount_;
    }
    readyCv_.notify_all();
}

void
StreamRunner::waitWorkersReady(std::size_t count)
{
    std::unique_lock<std::mutex> lock(readyMutex_);
    readyCv_.wait(lock, [&] { return readyCount_ >= count; });
}

void
StreamRunner::recycleFrame(StreamFrame &&frame)
{
    // Never blocks: the pool is sized for every frame that can be in
    // flight, so Full only happens if a stage duplicated a frame.
    (void)pool_->tryPush(std::move(frame));
}

void
StreamRunner::sourceLoop(StreamMetrics &metrics)
{
    // Do not start the arrival clock until every stage worker has
    // built its state; otherwise warm-up (network construction)
    // would masquerade as queueing delay.
    std::size_t stage_workers = 0;
    for (const StageSpec &s : stages_)
        stage_workers += s.workers;
    waitWorkersReady(stage_workers);

    start_ = Clock::now();
    Queue &q0 = *queues_[0];
    double next_arrival = 0.0;

    // One frame object, refilled in place. A successful push moves
    // its buffers into the queue; the next iteration adopts a retired
    // frame's buffers from the recycling pool. A rejected push
    // (DropNewest at capacity) leaves the buffers right here for the
    // next fill. Either way, steady state allocates nothing.
    StreamFrame frame;

    for (std::uint64_t i = 0; i < config_.frames; ++i) {
        if (stop_.load())
            break;
        next_arrival += config_.arrivals.interarrivalS(i);
        if (next_arrival > 0.0) {
            std::this_thread::sleep_until(
                start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 next_arrival)));
        }

        if (frame.image.empty())
            (void)pool_->tryPop(frame);
        source_.fill(i, frame);
        frame.emitS = secondsSinceStart();
        metrics.recordOffered();

        bool closed = false;
        switch (config_.policy) {
          case AdmissionPolicy::Block: {
            if (q0.push(std::move(frame)) == QueuePush::Ok)
                metrics.recordAdmitted();
            else
                closed = true;
            break;
          }
          case AdmissionPolicy::DropNewest: {
            const QueuePush r = q0.tryPush(std::move(frame));
            if (r == QueuePush::Ok)
                metrics.recordAdmitted();
            else if (r == QueuePush::Full)
                metrics.recordDropped(i); // frame left intact: reused
            else
                closed = true;
            break;
          }
          case AdmissionPolicy::DropOldest: {
            std::optional<StreamFrame> evicted;
            if (q0.pushEvictOldest(std::move(frame), evicted) ==
                QueuePush::Ok) {
                metrics.recordAdmitted();
                if (evicted) {
                    metrics.recordDropped(evicted->index);
                    recycleFrame(std::move(*evicted));
                }
            } else {
                closed = true;
            }
            break;
          }
        }
        if (closed)
            break; // the run was aborted under us
    }
    q0.close();
}

void
StreamRunner::watchdogLoop(StreamMetrics &metrics)
{
    const auto deadline =
        std::chrono::duration<double>(config_.stageTimeoutS);
    const auto deadline_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(deadline)
            .count();
    // Scan well inside the deadline so overruns are caught promptly,
    // but never spin faster than once a millisecond.
    const auto tick = std::chrono::duration<double>(
        std::max(config_.stageTimeoutS / 8.0, 1e-3));

    while (!watchdogStop_.load()) {
        std::this_thread::sleep_for(tick);
        const auto now = Clock::now().time_since_epoch().count();
        for (auto &slot : slots_) {
            if (!slot->active.load())
                continue;
            if (now - slot->startNs.load() < deadline_ns)
                continue;
            // Claim the frame; the worker drops it on return. If the
            // worker claimed first the frame just completed in time.
            if (!slot->claimed.exchange(true)) {
                metrics.recordFailed(slot->frame.load(), slot->stage,
                                     StatusCode::DeadlineExceeded);
            }
        }
    }
}

void
StreamRunner::stageLoop(std::size_t stage, std::size_t worker,
                        WorkerSlot *slot, StreamMetrics &metrics)
{
    // A per-frame stage is a batch of one (its maxBatch is 1): it runs
    // this same loop and serves the batch's single frame.
    const StageSpec &spec = stages_[stage];
    std::function<void(StreamFrame &)> serve_one;
    std::function<void(std::vector<StreamFrame> &)> serve_batch;
    try {
        if (spec.makeBatchWorker)
            serve_batch = spec.makeBatchWorker(worker);
        else
            serve_one = spec.makeWorker(worker);
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(errorMutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        abortRun();
    }
    markWorkerReady();

    Queue &in = *queues_[stage];
    Queue *out =
        stage + 1 < stages_.size() ? queues_[stage + 1].get() : nullptr;
    const std::size_t max_batch = spec.maxBatch;
    const auto wait = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(spec.maxBatchWaitS));

    if (serve_one || serve_batch) {
        std::vector<StreamFrame> batch;
        batch.reserve(max_batch);
        StreamFrame frame;
        try {
            while (in.pop(frame)) {
                // clear() retires last batch's (moved-from) frames
                // but keeps the vector's capacity: the batch path
                // allocates nothing in steady state.
                batch.clear();
                batch.push_back(std::move(frame));
                // Coalesce: drain what is already queued for free,
                // then spend the latency budget on stragglers.
                const auto deadline = Clock::now() + wait;
                while (batch.size() < max_batch) {
                    if (in.tryPop(frame)) {
                        batch.push_back(std::move(frame));
                        continue;
                    }
                    const double left_s = secondsBetween(
                        Clock::now(), deadline);
                    if (left_s <= 0.0)
                        break;
                    if (in.tryPopFor(frame, left_s) != QueuePop::Ok)
                        break; // timed out or closed: serve partial
                    batch.push_back(std::move(frame));
                }
                metrics.recordQueueDepth(stage, in.size());
                if (serve_batch)
                    metrics.recordBatch(stage, batch.size());

                const auto t0 = Clock::now();
                if (slot) {
                    // The watchdog sees the batch as one unit of
                    // service, published under its oldest frame.
                    slot->frame.store(batch.front().index);
                    slot->claimed.store(false);
                    slot->startNs.store(
                        t0.time_since_epoch().count());
                    slot->active.store(true);
                }
                if (serve_batch)
                    serve_batch(batch);
                else
                    serve_one(batch.front());
                bool watchdog_claimed = false;
                if (slot) {
                    slot->active.store(false);
                    // Claim the batch back; losing means the watchdog
                    // already counted its first frame failed.
                    watchdog_claimed = slot->claimed.exchange(true);
                }
                metrics.recordService(
                    stage, secondsBetween(t0, Clock::now()));

                // Frames leave the batch individually: the pool,
                // failure accounting and downstream hand-off see the
                // same per-frame semantics at any batch size.
                bool aborted = false;
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    StreamFrame &f = batch[i];
                    if (watchdog_claimed) {
                        // The watchdog already counted the published
                        // (first) frame failed; its batchmates die
                        // with it and are accounted here.
                        if (i > 0) {
                            metrics.recordFailed(
                                f.index, stage,
                                StatusCode::DeadlineExceeded);
                        }
                        recycleFrame(std::move(f));
                        continue;
                    }
                    if (f.failed) {
                        // The stage surrendered the frame.
                        metrics.recordFailed(
                            f.index, stage,
                            f.failCode != StatusCode::Ok
                                ? f.failCode
                                : StatusCode::Internal);
                        recycleFrame(std::move(f));
                        continue;
                    }
                    if (out) {
                        // push() only moves on success, so a frame
                        // rejected by an aborted run is recycled.
                        if (aborted ||
                            out->push(std::move(f)) != QueuePush::Ok) {
                            aborted = true;
                            recycleFrame(std::move(f));
                        }
                    } else {
                        metrics.recordCompleted(f,
                                                secondsSinceStart());
                        if (config_.feedbackTap)
                            config_.feedbackTap(f);
                        recycleFrame(std::move(f));
                    }
                }
                if (aborted)
                    break;
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errorMutex_);
                if (!firstError_)
                    firstError_ = std::current_exception();
            }
            abortRun();
        }
    }

    // Last worker out closes the downstream queue so the next stage
    // drains and terminates.
    if (out && live_[stage]->fetch_sub(1) == 1)
        out->close();
}

StreamReport
StreamRunner::runImpl()
{
    started_ = true;

    queues_.clear();
    live_.clear();
    slots_.clear();
    std::vector<StageInfo> infos;
    std::size_t total_workers = 1; // the source
    for (const StageSpec &s : stages_) {
        queues_.push_back(
            std::make_unique<Queue>(config_.queueCapacity));
        live_.push_back(std::make_unique<std::atomic<std::size_t>>(
            s.workers));
        infos.push_back(StageInfo{s.name, s.workers});
        total_workers += s.workers;
    }
    // One slot per stage worker, in stage order (matching the chunk
    // assignment below); the stage index lets the watchdog attribute
    // a killed frame to the stage that wedged on it.
    for (std::size_t stage = 0; stage < stages_.size(); ++stage) {
        for (std::size_t w = 0; w < stages_[stage].workers; ++w) {
            auto slot = std::make_unique<WorkerSlot>();
            slot->stage = stage;
            slots_.push_back(std::move(slot));
        }
    }
    // The recycling pool must hold every frame that can be in flight
    // at once — one per queue slot plus every frame a worker can hold
    // (a whole batch for batching stages, one for the rest, one for
    // the source) — so recycleFrame() never finds it full.
    std::size_t held_frames = 1; // the source's in-hand frame
    for (const StageSpec &s : stages_)
        held_frames += s.workers * s.maxBatch;
    const std::size_t pool_frames = stages_.size() *
                                        config_.queueCapacity +
                                    held_frames + 1;
    pool_ = std::make_unique<Queue>(pool_frames);
    // Pre-warm the pool: materialize every buffer that can be in
    // flight at once, with `features` pre-sized to the image so the
    // first device-stage trip reuses the capacity. Lazy creation
    // would otherwise leak allocations into steady state whenever
    // retirements momentarily lag admissions and the source finds
    // the pool dry — a timing accident, not a workload property.
    for (std::size_t i = 0; i < pool_frames; ++i) {
        StreamFrame warm;
        source_.fill(0, warm);
        warm.features = warm.image;
        (void)pool_->tryPush(std::move(warm));
    }
    StreamMetrics metrics(infos, config_.frames);

    std::thread watchdog;
    watchdogStop_.store(false);
    if (config_.stageTimeoutS > 0.0)
        watchdog = std::thread([&] { watchdogLoop(metrics); });

    // Every worker is one long-lived chunk; the pool is sized so all
    // of them run concurrently (the caller serves as one worker).
    ThreadPool pool(total_workers);
    start_ = Clock::now(); // placeholder until the source re-stamps
    pool.run(total_workers, [&](std::size_t chunk) {
        if (chunk == 0) {
            sourceLoop(metrics);
            return;
        }
        std::size_t index = chunk - 1;
        WorkerSlot *slot = slots_[chunk - 1].get();
        for (std::size_t stage = 0; stage < stages_.size(); ++stage) {
            if (index < stages_[stage].workers) {
                stageLoop(stage, index, slot, metrics);
                return;
            }
            index -= stages_[stage].workers;
        }
        panic("worker chunk out of range");
    });

    if (watchdog.joinable()) {
        watchdogStop_.store(true);
        watchdog.join();
    }

    {
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (firstError_)
            std::rethrow_exception(firstError_);
    }
    return metrics.report(secondsSinceStart());
}

StreamReport
StreamRunner::run()
{
    panic_if(started_, "StreamRunner::run() may be called once");
    return runImpl();
}

StatusOr<StreamReport>
StreamRunner::tryRun()
{
    if (started_) {
        return Status::failedPrecondition(
            "StreamRunner::run() may be called once");
    }
    try {
        return runImpl();
    } catch (const std::exception &e) {
        return Status::internal(std::string("stage failure: ") +
                                e.what());
    } catch (...) {
        return Status::internal("stage failure: unknown exception");
    }
}

} // namespace stream
} // namespace redeye
