/**
 * @file
 * The continuous-vision serving pipeline: concrete StageSpecs wiring
 * the paper's always-on frame path into the streaming runtime.
 *
 *   source -> sensor sampling -> RedEye device -> host tail
 *
 * The sensor stage applies the raw sampling model (inverse gamma,
 * shot noise, fixed-pattern noise); the device stage executes the
 * analog prefix of MiniGoogLeNet through the functional ColumnArray
 * and exports the quantized cut tensor plus the realized energy; the
 * host stage classifies the features with the digital tail network
 * and prices the digital side with the Jetson TK1 GPU model
 * (system/jetson.hh).
 *
 * Every stage worker owns private replicas (sensor layer, network,
 * per-frame device) built from the same seeds, and keys all noise by
 * the frame index, so frame content is bit-identical no matter how
 * many workers serve a stage.
 *
 * makeVisionStages() hands the workers to a StreamRunner;
 * classifyFrames() runs the same workers over a list of frame indices
 * without one, for callers that only need the predictions (the fleet
 * engine's content pass). Both take the same config check.
 */

#ifndef REDEYE_STREAM_VISION_HH
#define REDEYE_STREAM_VISION_HH

#include <memory>

#include "data/shapes_dataset.hh"
#include "fault/fault_model.hh"
#include "nn/network.hh"
#include "noise/sensor_noise.hh"
#include "stream/degrade.hh"
#include "stream/runner.hh"

namespace redeye {
namespace stream {

/** Configuration of the vision pipeline. */
struct VisionConfig {
    unsigned depth = 1;        ///< MiniGoogLeNet analog depth cut
    std::size_t classes = data::kShapeClasses;
    double convSnrDb = 40.0;   ///< RedEye fidelity mode
    unsigned adcBits = 4;      ///< readout resolution
    unsigned weightBits = 8;   ///< kernel DAC resolution

    noise::SensorParams sensor; ///< raw sampling model

    std::uint64_t weightSeed = 0x3317a11;  ///< network replica seed

    /**
     * Optional trained weights: when set, every network replica
     * (device prefix, host tail, bypass network) copies matching
     * layers from this network after construction, so served
     * predictions reflect a trained classifier instead of the random
     * init. Shared read-only across workers; null = random init.
     */
    std::shared_ptr<nn::Network> weights;
    std::uint64_t deviceSeed = 0xde71ce;   ///< analog noise base

    std::size_t sensorWorkers = 1;
    std::size_t deviceWorkers = 1;
    std::size_t hostWorkers = 1;

    /**
     * Intra-frame parallelism of the host tail: GEMM threads per host
     * worker. Each worker > 1 owns a private ThreadPool and a
     * matching multi-lane Workspace, and the blocked GEMM backend
     * partitions each tail product's columns across it. 1 = serial
     * tail execution (the historical behaviour). Logits are
     * bit-identical at any setting (DESIGN.md §12).
     */
    std::size_t hostThreads = 1;

    /**
     * Dynamic batching of the host tail: the largest number of queued
     * frames one tail forward may coalesce into a single batched
     * im2col + GEMM pass. 1 = per-frame serving. Values > 1 switch
     * the host stage to a StageSpec batch worker.
     */
    std::size_t hostBatch = 1;

    /**
     * Latency budget of a partial host batch: how long a host worker
     * holding fewer than hostBatch frames waits for stragglers before
     * serving what it has (StageSpec::maxBatchWaitS). Must be in
     * [0, kMaxWaitS].
     */
    double hostBatchWaitS = 0.0;

    /**
     * Fault campaign armed on every device replica (shared,
     * immutable; nullptr = pristine silicon). Faults with a later
     * onset frame stay dormant until the stream reaches them.
     */
    std::shared_ptr<const fault::FaultModel> faults;

    /**
     * Degradation policy. When enabled, device workers derive plans
     * once per epoch — remap, ADC boost or full analog bypass — as a
     * pure function of the (shared, static) fault model and epoch.
     */
    DegradationPolicyConfig degrade;

    /**
     * Shared content-addressed plan cache: the first worker to reach
     * an epoch probes and plans; the rest fetch the stored plan
     * instead of re-probing. makeVisionStages() creates one when the
     * policy is enabled and none is supplied; supply your own to
     * observe hit/miss statistics or share it across pipelines with
     * identical operating points.
     */
    std::shared_ptr<DegradePlanCache> planCache;
};

/**
 * Build the three vision stages for a StreamRunner. Worker state is
 * constructed lazily inside each worker (StageSpec::makeWorker), so
 * this call itself is cheap.
 */
std::vector<StageSpec> makeVisionStages(const VisionConfig &config);

/**
 * Classify frames outside a StreamRunner, with the stage workers the
 * pipeline uses: frame indices[i] is replay example
 * (indices[i] mod N), sampled by the sensor worker and run through
 * the device worker; surviving frames coalesce into blocks of
 * config.hostBatch, each served by one batched host-tail forward.
 * @p threads workers (0 counts as 1) stride over the indices, each
 * with private replicas; config's worker counts and batch wait do not
 * apply. Returns one prediction per index. Content is a pure function
 * of the index, so predictions are bit-identical at any thread count
 * and batch size.
 */
std::vector<std::int32_t>
classifyFrames(const VisionConfig &config, const data::Dataset &replay,
               const std::vector<std::uint64_t> &indices,
               std::size_t threads);

/**
 * Generate the replay dataset the serving benches and tests use:
 * @p per_class examples per shape class, rendered from @p seed.
 */
data::Dataset makeReplayDataset(std::size_t per_class,
                                std::uint64_t seed);

} // namespace stream
} // namespace redeye

#endif // REDEYE_STREAM_VISION_HH
