#include "stream/vision.hh"

#include <algorithm>
#include <memory>
#include <thread>

#include "core/exec.hh"
#include "core/logging.hh"
#include "core/workspace.hh"
#include "models/mini_googlenet.hh"
#include "models/partition.hh"
#include "nn/serialize.hh"
#include "redeye/device.hh"
#include "stream/frame_source.hh"
#include "system/jetson.hh"

namespace redeye {
namespace stream {

namespace {

/** Base seed of the sensor stage's sampling noise. */
constexpr std::uint64_t kSensorSeed = 0x5e9505;

/** Index of the largest value in row[0..n). */
std::int32_t
argmaxRow(const float *row, std::size_t n)
{
    std::int32_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
        if (row[i] > row[best])
            best = static_cast<std::int32_t>(i);
    }
    return best;
}

/** Index of the largest logit. */
std::int32_t
argmax(const Tensor &logits)
{
    return argmaxRow(logits.data(), logits.size());
}

/** Sensor stage: per-worker sampling-layer replica. */
struct SensorWorker {
    noise::SensorSamplingLayer layer;
    Tensor scratch;                    ///< recycled input buffers
    std::vector<const Tensor *> ins{nullptr}; ///< persistent arg list

    explicit SensorWorker(const VisionConfig &cfg)
        : layer("stream/sensor", cfg.sensor, Rng(kSensorSeed))
    {
    }

    void
    process(StreamFrame &frame)
    {
        // Key the noise to the frame index: every replica realizes
        // the same raw sample for the same frame.
        layer.setPass(frame.index);
        // Swap the incoming pixels into the scratch slot and sample
        // back into the frame's buffers: both tensors keep their
        // storage across frames, so steady state allocates nothing.
        std::swap(frame.image, scratch);
        ins[0] = &scratch;
        layer.forward(ins, frame.image);
    }
};

/** Device stage: network replica + per-frame functional device. */
struct DeviceWorker {
    VisionConfig cfg;
    std::unique_ptr<nn::Network> net;
    std::vector<std::string> layers;
    arch::ColumnArrayConfig array;

    explicit DeviceWorker(const VisionConfig &config) : cfg(config)
    {
        Rng weights(cfg.weightSeed);
        net = models::buildMiniGoogLeNet(cfg.classes, weights);
        if (cfg.weights)
            nn::copyWeightsByName(*net, *cfg.weights);
        layers = models::miniGoogLeNetAnalogLayers(cfg.depth);
        array.columns = models::kMiniInputSize;
        array.convSnrDb = cfg.convSnrDb;
        array.weightBits = cfg.weightBits;
        array.adcBits = cfg.adcBits;
    }

    /**
     * Degradation plan for the epoch containing @p index, fetched
     * from the pipeline-shared content-addressed cache: probing is a
     * pure function of (fault model, epoch, operating point), so the
     * first worker to reach an epoch plans for all of them —
     * bit-identical frames regardless of worker count.
     */
    const DegradePlan &
    planFor(std::uint64_t index)
    {
        const std::uint64_t epoch = index / cfg.degrade.probePeriod;
        return cfg.planCache->fetch(
            degradePlanKey(epoch, array, cfg.degrade), [&] {
                const ProbeReport probe = runCalibrationProbe(
                    array, cfg.faults.get(),
                    epoch * cfg.degrade.probePeriod);
                return planDegradation(probe, array, cfg.degrade);
            });
    }

    void
    process(StreamFrame &frame)
    {
        // Consult the degradation plan before touching the device: a
        // bypassed frame must not pay for (or allocate) an analog
        // array it will never use.
        const DegradePlan *plan = nullptr;
        if (cfg.faults && cfg.degrade.enabled) {
            plan = &planFor(frame.index);
            if (plan->mode == DegradeMode::Bypass) {
                // Hardware past saving: hand the raw frame to the
                // host's full digital network.
                frame.analogBypassed = true;
                frame.features = frame.image;
                frame.analogEnergyJ = 0.0;
                return;
            }
        }
        // A fresh device per frame, seeded by the frame index: the
        // realized analog noise (and therefore the exported features
        // and energy) is a pure function of the index.
        arch::RedEyeDevice device(
            array, analog::ProcessParams::typical(),
            Rng(streamRng(cfg.deviceSeed, 0, frame.index).raw()));
        if (cfg.faults) {
            device.armFaults(cfg.faults.get(), frame.index);
            if (plan && plan->mode == DegradeMode::Remap) {
                device.array().setColumnMap(plan->columnMap);
                if (plan->adcBits)
                    device.array().setAdcBits(plan->adcBits);
            }
        }
        auto run = device.run(*net, layers, frame.image);
        frame.features = std::move(run.features);
        frame.analogEnergyJ = run.energy.totalJ();
    }
};

/** Host stage: digital tail replica + system energy model. */
struct HostWorker {
    VisionConfig cfg;
    std::unique_ptr<nn::Network> full; ///< bypass path (degradation)
    std::unique_ptr<nn::Network> tail;
    double hostEnergyJ = 0.0;   ///< model energy of the digital tail
    double bypassEnergyJ = 0.0; ///< full digital net, analog bypassed

    /**
     * Batched-tail replica pinned to one padded batch size. Network
     * activation plans reallocate whenever the batch extent changes,
     * so dynamic batch sizes are rounded up to a small set of
     * buckets (powers of two, capped at hostBatch) whose replicas
     * and staging tensors persist across batches — steady-state
     * batched serving touches the heap exactly never.
     */
    struct Bucket {
        std::size_t size = 0;
        std::unique_ptr<nn::Network> net;
        Tensor input; ///< (size, cut) staging buffer
    };
    std::vector<Bucket> buckets;
    std::vector<std::size_t> liveIdx; ///< non-bypassed batch slots

    /**
     * Execution context for every forward this worker runs. With
     * hostThreads > 1 it carries a private ThreadPool (plus a
     * matching multi-lane workspace) that the blocked GEMM backend
     * fans each tail product out over; the per-pool nesting rule in
     * core/exec.hh is what lets this worker — itself a chunk of the
     * runner's pool — dispatch onto its own pool. The networks' conv
     * layers draw im2col scratch and GEMM pack panels from the
     * arenas, so after warm-up the host stage performs no heap
     * allocation at any thread count or batch size.
     */
    std::unique_ptr<ThreadPool> pool;
    Workspace workspace;
    ExecContext ctx;

    explicit HostWorker(const VisionConfig &config)
        : cfg(config),
          pool(cfg.hostThreads > 1
                   ? std::make_unique<ThreadPool>(cfg.hostThreads)
                   : nullptr),
          workspace(std::max<std::size_t>(cfg.hostThreads, 1))
    {
        if (pool)
            ctx = ExecContext(*pool);
        ctx.setWorkspace(&workspace);
        Rng weights(cfg.weightSeed);
        full = models::buildMiniGoogLeNet(cfg.classes, weights);
        if (cfg.weights)
            nn::copyWeightsByName(*full, *cfg.weights);
        const auto analog_layers =
            models::miniGoogLeNetAnalogLayers(cfg.depth);
        const Shape cut = full->nodeShape(analog_layers.back());

        Rng tail_init(cfg.weightSeed ^ 0x7a11);
        tail = models::buildMiniGoogLeNetTail(cfg.depth, cfg.classes,
                                              cut, tail_init);
        nn::copyWeightsByName(*tail, *full);

        // Batched-tail buckets: powers of two strictly below
        // hostBatch, then hostBatch itself. Each replica is seeded
        // exactly like `tail` (then overwritten from `full`), so all
        // replicas hold identical parameters.
        if (cfg.hostBatch > 1) {
            std::size_t sz = 2;
            for (;; sz *= 2) {
                const std::size_t b = std::min(sz, cfg.hostBatch);
                Rng bucket_init(cfg.weightSeed ^ 0x7a11);
                Bucket bk;
                bk.size = b;
                bk.net = models::buildMiniGoogLeNetTail(
                    cfg.depth, cfg.classes, cut, bucket_init);
                nn::copyWeightsByName(*bk.net, *full);
                bk.input = Tensor(Shape(b, cut.c, cut.h, cut.w));
                buckets.push_back(std::move(bk));
                if (b == cfg.hostBatch)
                    break;
            }
            liveIdx.reserve(cfg.hostBatch);
        }

        const double tail_macs = static_cast<double>(
            models::digitalTailMacs(*full, analog_layers));
        const double full_macs =
            static_cast<double>(full->totalMacs());
        sys::JetsonTk1 host(sys::JetsonParams::paper(
            sys::JetsonProcessor::GPU, full_macs, tail_macs));
        hostEnergyJ = host.executionEnergyJ(tail_macs);
        bypassEnergyJ = host.executionEnergyJ(full_macs);

        // Pre-warm every replica once: activation plans, arena spans
        // and GEMM pack panels all materialize here, so the first
        // real serve at any batch size — which may first form long
        // after a run's measurement warm-up window — allocates
        // nothing.
        Tensor warm(Shape(1, cut.c, cut.h, cut.w));
        warm.zero();
        tail->forward(warm, ctx);
        Tensor warm_full(full->inputShape());
        warm_full.zero();
        full->forward(warm_full, ctx);
        for (Bucket &bk : buckets) {
            bk.input.zero();
            bk.net->forward(bk.input, ctx);
        }
    }

    /** Smallest bucket holding @p frames items. */
    Bucket &
    bucketFor(std::size_t frames)
    {
        for (Bucket &bk : buckets) {
            if (bk.size >= frames)
                return bk;
        }
        panic("host batch exceeds every bucket");
    }

    void
    process(StreamFrame &frame)
    {
        if (frame.analogBypassed) {
            // The degradation policy routed around the analog stage:
            // `features` carries the raw sampled image and the full
            // digital network serves the frame.
            frame.predicted =
                argmax(full->forward(frame.features, ctx));
            frame.systemEnergyJ = bypassEnergyJ;
            return;
        }
        frame.predicted = argmax(tail->forward(frame.features, ctx));
        frame.systemEnergyJ = frame.analogEnergyJ + hostEnergyJ;
    }

    /**
     * Serve a coalesced batch: one tail forward over all the
     * non-bypassed frames' features, gathered into a bucket's
     * staging tensor. Every layer in the tail treats batch items
     * independently, so each frame's logits are bit-identical to the
     * per-frame path regardless of which frames shared the batch or
     * how the batch was padded — the runner's determinism contract
     * survives timing-dependent coalescing.
     */
    void
    processBatch(std::vector<StreamFrame> &frames)
    {
        liveIdx.clear();
        for (std::size_t i = 0; i < frames.size(); ++i) {
            if (frames[i].analogBypassed)
                process(frames[i]); // rare degradation path: full net
            else
                liveIdx.push_back(i);
        }
        if (liveIdx.empty())
            return;
        if (liveIdx.size() == 1) {
            process(frames[liveIdx[0]]);
            return;
        }

        Bucket &bk = bucketFor(liveIdx.size());
        const std::size_t slice = bk.input.shape().sliceSize();
        float *dst = bk.input.data();
        for (std::size_t r = 0; r < liveIdx.size(); ++r) {
            const Tensor &src = frames[liveIdx[r]].features;
            panic_if(src.size() != slice,
                     "host batch: feature shape mismatch");
            std::copy(src.data(), src.data() + slice,
                      dst + r * slice);
        }
        // Pad rows replicate row 0: per-item independence keeps the
        // real rows' logits invariant to the padding, and replaying a
        // real frame keeps the padded arithmetic free of surprises
        // (no uninitialized or degenerate inputs).
        for (std::size_t r = liveIdx.size(); r < bk.size; ++r)
            std::copy(dst, dst + slice, dst + r * slice);

        const Tensor &logits = bk.net->forward(bk.input, ctx);
        const std::size_t classes = logits.shape().sliceSize();
        for (std::size_t r = 0; r < liveIdx.size(); ++r) {
            StreamFrame &f = frames[liveIdx[r]];
            f.predicted =
                argmaxRow(logits.data() + r * classes, classes);
            f.systemEnergyJ = f.analogEnergyJ + hostEnergyJ;
        }
    }
};

/**
 * Validate @p config_in and materialize its shared plan cache, before
 * any per-worker config copy is taken: every device worker must hold
 * the same cache instance.
 */
VisionConfig
checkedConfig(const VisionConfig &config_in)
{
    fatal_if(config_in.depth < 1 || config_in.depth > 5,
             "vision depth must be in [1, 5]");
    fatal_if(config_in.degrade.enabled &&
                 config_in.degrade.probePeriod == 0,
             "degradation probe period must be >= 1");
    fatal_if(config_in.hostThreads == 0,
             "hostThreads must be positive");
    fatal_if(config_in.hostBatch == 0, "hostBatch must be positive");
    fatal_if(!(config_in.hostBatchWaitS >= 0.0 &&
               config_in.hostBatchWaitS <= kMaxWaitS),
             "hostBatchWaitS must be in [0, ", kMaxWaitS, "] s, got ",
             config_in.hostBatchWaitS);

    VisionConfig config = config_in;
    if (config.degrade.enabled && !config.planCache)
        config.planCache = std::make_shared<DegradePlanCache>();
    return config;
}

} // namespace

std::vector<StageSpec>
makeVisionStages(const VisionConfig &config_in)
{
    const VisionConfig config = checkedConfig(config_in);

    std::vector<StageSpec> stages;
    stages.push_back(StageSpec{
        "sensor", config.sensorWorkers, [config](std::size_t) {
            auto state = std::make_shared<SensorWorker>(config);
            return [state](StreamFrame &f) { state->process(f); };
        }});
    stages.push_back(StageSpec{
        "redeye", config.deviceWorkers, [config](std::size_t) {
            auto state = std::make_shared<DeviceWorker>(config);
            return [state](StreamFrame &f) { state->process(f); };
        }});
    StageSpec host;
    host.name = "host";
    host.workers = config.hostWorkers;
    if (config.hostBatch > 1) {
        host.maxBatch = config.hostBatch;
        host.maxBatchWaitS = config.hostBatchWaitS;
        host.makeBatchWorker = [config](std::size_t) {
            auto state = std::make_shared<HostWorker>(config);
            return [state](std::vector<StreamFrame> &batch) {
                state->processBatch(batch);
            };
        };
    } else {
        host.makeWorker = [config](std::size_t) {
            auto state = std::make_shared<HostWorker>(config);
            return [state](StreamFrame &f) { state->process(f); };
        };
    }
    stages.push_back(std::move(host));
    return stages;
}

std::vector<std::int32_t>
classifyFrames(const VisionConfig &config_in, const data::Dataset &replay,
               const std::vector<std::uint64_t> &indices,
               std::size_t threads)
{
    const VisionConfig config = checkedConfig(config_in);
    threads = std::max<std::size_t>(1, threads);
    std::vector<std::int32_t> predicted(indices.size());

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t]() {
            // Worker replicas key all noise by frame index, so any
            // thread computes identical content for an index (the
            // streaming determinism contract, DESIGN.md §7).
            ShapesReplaySource source(replay);
            SensorWorker sensor(config);
            DeviceWorker device(config);
            HostWorker host(config);

            // Sampled, device-served frames accumulate into a block
            // served by one batched tail forward.
            std::vector<StreamFrame> block;
            std::vector<std::size_t> slots;
            block.reserve(config.hostBatch);
            slots.reserve(config.hostBatch);
            auto flush = [&]() {
                host.processBatch(block);
                for (std::size_t j = 0; j < block.size(); ++j)
                    predicted[slots[j]] = block[j].predicted;
                block.clear();
                slots.clear();
            };

            StreamFrame frame;
            for (std::size_t i = t; i < indices.size(); i += threads) {
                source.fill(indices[i], frame);
                sensor.process(frame);
                device.process(frame);
                slots.push_back(i);
                block.push_back(std::move(frame));
                if (block.size() == config.hostBatch)
                    flush();
            }
            if (!block.empty())
                flush();
        });
    }
    for (std::thread &t : pool)
        t.join();
    return predicted;
}

data::Dataset
makeReplayDataset(std::size_t per_class, std::uint64_t seed)
{
    Rng rng(seed);
    return data::generateShapes(per_class, data::ShapesParams{}, rng);
}

} // namespace stream
} // namespace redeye
