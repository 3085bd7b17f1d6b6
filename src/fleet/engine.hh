/**
 * @file
 * FleetEngine: multi-tenant serving of thousands of client streams
 * on a shared RedEye device pool.
 *
 * The engine keeps the event loop: the event heap, the classed
 * queues, dispatch, the request path (deadlines, retry, hedging,
 * brownout demand), the tuning cadence and reporting. Each other
 * decision lives in the module that holds its state — device health
 * in the DevicePool, the content pass in stream (classifyFrames),
 * session storage in the SessionDb.
 *
 * The engine is a virtual-time discrete-event simulation. Thousands
 * of concurrent open-loop Poisson clients cannot each run the full
 * functional pipeline, so service times come from the repo's own
 * analytic models — the pipelined module schedule for the analog
 * stage (redeye/scheduler.hh), the affine-in-MACs Jetson TK1 GPU
 * model for the digital tail (system/jetson.hh), the architecture
 * energy model for per-frame analog energy (redeye/energy_model.hh)
 * — while every scheduling decision (admission, eviction,
 * weighted-fair dispatch, per-device degradation) is executed
 * concretely against the shared SessionDb, ClassedQueues and
 * DevicePool.
 *
 * Fault tolerance (DESIGN.md §13, FaultToleranceConfig): with the
 * layer enabled the engine additionally runs
 *
 *  - **live device health** — per-device fault campaigns with onset
 *    horizons fire on the device's served-frame clock; on a periodic
 *    sweep event the pool probes each device (stream/probe.hh),
 *    scores it into an EWMA and quarantines the failing ones;
 *  - **quarantine/recovery** — quarantined devices drain their
 *    leases and reprobe on Reprobe events after the pool's
 *    exponential backoff; the pool re-admits them through the
 *    DegradePlanCache with a Remap/Bypass plan, or retires them
 *    permanently;
 *  - **deadlines, retry, hedging** — every request carries a
 *    QoS-derived deadline; failed or timed-out attempts retry on a
 *    different device under seeded jittered exponential backoff and
 *    a per-class retry budget (core/retry.hh); INTERACTIVE requests
 *    predicted past the class's device-service latency percentile
 *    dispatch one hedged duplicate with first-wins settling (the
 *    loser drains lazily — cancellation is an accounting fact, not
 *    a preemption);
 *  - **brownout shedding** — a controller compares demand against
 *    surviving healthy capacity each sweep and walks QoS classes
 *    down: shed BEST_EFFORT arrivals, then force BACKGROUND to
 *    Bypass plans; INTERACTIVE is never touched.
 *
 * The layer's policy numbers are named constants (DESIGN.md §13):
 * the request policy (kRetryBackoff, kRetryBudgetCap,
 * kHedgePercentile, kDeadlineMultiplier, kAttemptTimeoutMultiplier)
 * in engine.cc, the device-health policy (kHealthAlpha,
 * kQuarantineEwma, kErrorThreshold, kReprobeBackoff,
 * kRetireSuspectFraction and the rest) in device_pool.cc.
 * FaultToleranceConfig carries only the switch, the sweep period
 * and the brownout band.
 *
 * One request path: every device dispatch — first attempt, retry or
 * hedge, with the layer on or off — runs through a pooled request
 * record and one leg launcher, and every device completion settles
 * through one path. "Layer off" means the policy steps are inert
 * (no deadlines, failure draws, timers, hedges or brownout levels),
 * not a separate code path, so every admitted frame reaches exactly
 * one terminal status — completed (possibly degraded) or shed with a
 * cause — and the conservation invariants offered == admitted +
 * dropped and admitted == completed + shed hold either way.
 *
 * Determinism: the event loop is single-threaded over a min-heap
 * keyed by (time, sequence), and all randomness (class draws,
 * arrival gaps, service jitter, failure draws, backoff jitter)
 * comes from counter-based streams (core/rng.hh) keyed by session
 * and frame — a run is a pure function of FleetConfig, at any
 * machine parallelism.
 *
 * Allocation: the data plane (admission, dispatch, completion,
 * retry, hedge, brownout bookkeeping) runs entirely out of
 * pre-sized pools — the event heap, the request-record pool, the
 * classed queues and the window accumulators are all reserved
 * before the loop starts. Only the control plane (probe sweeps,
 * reprobes, chaos handlers) allocates, and its share is metered
 * separately (FleetReport::steadyAllocations()).
 *
 * Content execution: the DES never touches pixels, so for the first
 * `contentSessions` clients the engine additionally *executes* the
 * real vision pipeline for every frame the simulation completed: it
 * groups the completed frames per class into content keys, hands
 * each group to stream::classifyFrames (stream/vision.hh) and
 * records the per-frame predictions. Frame content is a pure
 * function of (session seed, frame index), so predictions are
 * bit-identical at any contentThreads count — the fleet analogue of
 * the streaming runtime's determinism contract.
 */

#ifndef REDEYE_FLEET_ENGINE_HH
#define REDEYE_FLEET_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/classed_queue.hh"
#include "core/hist.hh"
#include "core/retry.hh"
#include "fleet/device_pool.hh"
#include "fleet/metrics.hh"
#include "fleet/qos.hh"
#include "fleet/session_db.hh"
#include "nn/network.hh"
#include "redeye/compiler.hh"
#include "tune/controller.hh"
#include "tune/op_model.hh"
#include "tune/scene.hh"

namespace redeye {
namespace fleet {

/** One scripted chaos-schedule entry. */
struct ChaosEvent {
    double timeS = 0.0;     ///< virtual time the event fires
    std::size_t device = 0; ///< target device index

    enum class Kind {
        Kill,    ///< arm an immediate-onset dead-column campaign
        Recover, ///< clear the device's fault campaign
    } kind = Kind::Kill;

    double deadFraction = 0.9; ///< severity of a Kill campaign
};

/**
 * Fault-tolerance layer knobs (DESIGN.md §13). The policy constants
 * are fixed: the device-health ones (health EWMA weight, quarantine,
 * error and retire thresholds, reprobe backoff) in device_pool.cc,
 * the request ones (retry backoff, retry-budget cap, hedge
 * percentile, deadline and attempt-timeout multipliers) in engine.cc.
 */
struct FaultToleranceConfig {
    /** Master switch. Off (the default) reproduces the pre-layer
     * engine event-for-event. */
    bool enabled = false;

    /** Calibration-probe sweep period in virtual seconds (0 turns
     * sweeps — and with them quarantine-by-probe and brownout
     * control — off; error-threshold quarantine still runs).
     * Must be finite and non-negative. */
    double probePeriodS = 0.0;

    /** Demand/capacity ratio above which the brownout controller
     * escalates one level (1 = shed BEST_EFFORT arrivals, 2 =
     * additionally force BACKGROUND to Bypass). */
    double brownoutHigh = 1.0;

    /** Ratio below which it de-escalates one level; must be below
     * brownoutHigh. */
    double brownoutLow = 0.7;
};

/** Fleet run parameters. */
struct FleetConfig {
    std::size_t sessions = 64;          ///< admitted clients
    std::uint64_t framesPerSession = 32;
    double sessionRateHz = 5.0;         ///< per-client Poisson rate

    /** Traffic mix (fractions, classIndex order; need not sum to 1 —
     * the remainder goes to the last class). */
    std::array<double, kTrafficClasses> mix = {0.6, 0.3, 0.1};

    std::uint64_t seed = 0xf1ee7;

    DevicePoolConfig pool;      ///< shared serving capacity
    std::size_t queueCapacity = 64; ///< bound of each shared queue
    QosTable qos = defaultQosTable();

    /**
     * When positive, sessions idle longer than this at the end of the
     * run are expired from the SessionDb (reported, not counted as
     * shed).
     */
    double sessionIdleExpireS = 0.0;

    /** Fault-tolerance layer (off by default). */
    FaultToleranceConfig ft;

    /** Scripted device kills/recoveries, applied in timeS order.
     * Needs ft.enabled, and every target inside the pool. */
    std::vector<ChaosEvent> chaos;

    /** Reporting window span in virtual seconds (0 = no windows).
     * Must be finite and non-negative. The table spans eight session
     * horizons (framesPerSession / sessionRateHz) plus eight windows,
     * at most 65,536 windows; the last takes every later event. */
    double windowS = 0.0;

    /**
     * Online operating-point auto-tuning (off by default; see
     * tune/controller.hh). Enabled, every session carries an
     * AutoTuner seeded at its class operating point, fed by
     * per-completion feedback and stepped every tune.windowS of
     * virtual time (which must then be finite and positive); a
     * switch re-keys the session into the shared Program/OpModel
     * caches. Disabled, the run is bit-identical to a tuner-less
     * engine.
     */
    tune::AutoTuneConfig tune;

    /**
     * Scripted scene-difficulty schedule (virtual time). The engine
     * synthesizes each completion's accuracy-proxy observation from
     * the scene in effect at completion time — the fleet-scale
     * analogue of a downstream vision model scoring frames.
     */
    tune::SceneSchedule scenes;

    /**
     * The first contentSessions clients also execute the real vision
     * pipeline for completed frames (predictions recorded on the
     * session), parallelized over contentThreads.
     */
    std::size_t contentSessions = 0;
    std::size_t contentThreads = 1;

    /**
     * Host-tail batch size of the content pass: each content worker
     * coalesces up to this many surviving frames into one batched
     * tail forward (stream::VisionConfig::hostBatch). Predictions
     * are bit-identical at any setting — batch membership never
     * leaks across items — so this is purely a throughput knob.
     */
    std::size_t contentBatch = 1;
};

/** Multi-tenant fleet serving engine. */
class FleetEngine
{
  public:
    explicit FleetEngine(const FleetConfig &config);
    ~FleetEngine();

    /** Admit all sessions, serve all arrivals, report. */
    FleetReport run();

    const FleetConfig &config() const { return config_; }
    const SessionDb &sessions() const { return db_; }
    const DevicePool &pool() const { return pool_; }
    const arch::ProgramCache &programCache() const
    {
        return *programCache_;
    }
    const stream::DegradePlanCache &planCache() const
    {
        return *pool_.planCache();
    }

    /** Latency SLO per class: QosClassConfig::sloMultiplier times
     * the class's unloaded device + host service time. */
    double classSloS(TrafficClass cls) const;

  private:
    /** One frame queued between stages. */
    struct QueuedFrame {
        std::uint64_t session = 0;
        std::uint64_t frame = 0;
        double arrivalS = 0.0;
        double deadlineS = 0.0;      ///< absolute; 0 = no deadline
        std::uint8_t attempt = 0;    ///< dispatch attempt (0 = first)
        std::int16_t avoidDevice = -1; ///< device a retry must avoid
        bool bypass = false;   ///< device routed around the array
        bool degraded = false; ///< brownout-forced bypass serving
        double analogJ = 0.0;  ///< energy realized on the device
    };

    struct Event {
        double timeS = 0.0;
        std::uint64_t seq = 0; ///< FIFO tie-break at equal times
        enum class Kind {
            Arrival,
            DeviceDone,
            HostDone,
            ProbeSweep,      ///< periodic health sweep + brownout
            Reprobe,         ///< quarantined-device recheck
            Retry,           ///< backoff elapsed: re-enqueue qf
            HedgeFire,       ///< hedge delay elapsed on a record
            AttemptTimeout,  ///< per-attempt deadline on a leg
            Chaos,           ///< scripted kill/recover
            TuneStep,        ///< close tuning windows, retune
        } kind = Kind::Arrival;
        QueuedFrame qf;
        int resource = -1;     ///< device/host slot, reprobe device,
                               ///< or chaos schedule index
        double busyS = 0.0;    ///< service time to account at release
        double energyJ = 0.0;  ///< analog energy to account at release
        int record = -1;       ///< request record of a device leg
        std::uint8_t leg = 0;  ///< leg index within the record
        std::uint32_t gen = 0; ///< record generation guard
    };

    struct EventAfter {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.timeS != b.timeS)
                return a.timeS > b.timeS;
            return a.seq > b.seq;
        }
    };

    /** One physical dispatch of a request attempt. */
    struct RequestLeg {
        int device = -1;
        bool done = false;     ///< DeviceDone arrived
        bool dead = false;     ///< timed out or failed
        bool willFail = false; ///< drawn at dispatch
    };

    /**
     * In-flight request bookkeeping: one record per dispatched
     * attempt (plus its hedge leg), pooled and free-listed. A record
     * always holds at least one physical device leg, so the pool is
     * bounded by the device count.
     */
    struct RequestRecord {
        QueuedFrame qf;
        std::uint32_t gen = 0;
        std::uint8_t legCount = 0;
        std::uint8_t legsInFlight = 0;
        bool closed = false; ///< outcome decided (settle/shed/retry)
        std::array<RequestLeg, 2> legs{};
        int freeNext = -1;
    };

    /** Immutable per-class serving model (built at construction). */
    struct ClassModel {
        std::vector<std::string> analogLayers;
        arch::RedEyeConfig deviceConfig;
        tune::OpModel serving; ///< the class operating point's pricing
        double sloS = 0.0;     ///< effective latency SLO
    };

    /**
     * The serving model a session's frames are priced with: the
     * tuned operating point's OpModel when one is active, the class
     * model otherwise (always, with the tuner off).
     */
    const tune::OpModel &servingFor(const Session &s) const;

    void buildClassModels();
    void admitSessions();
    void schedule(Event event);
    void scheduleRecurring(Event::Kind kind, double time_s);
    bool popEvent(Event &out);
    void onArrival(const Event &event);
    void onDeviceDone(const Event &event);
    void onHostDone(const Event &event);
    void onProbeSweep(const Event &event);
    void onReprobe(const Event &event);
    void onRetry(const Event &event);
    void onHedgeFire(const Event &event);
    void onAttemptTimeout(const Event &event);
    void onChaos(const Event &event);
    void onTuneStep(const Event &event);
    void dispatchDevices(double now_s);
    void dispatchHosts(double now_s);

    /** Dispatch leg @p leg of @p record on the leased @p device:
     * price it by the device's health, jitter it, draw its failure
     * and schedule its DeviceDone. Returns the leg's service time. */
    double launchLeg(int record, std::uint8_t leg, int device,
                     double now_s);

    /** Push @p qf, shedding any frame the push evicts; false when
     * @p qf itself was rejected. */
    bool enqueue(ClassedQueue<QueuedFrame> &queue, std::size_t cls,
                 QueuedFrame qf, double now_s);
    void shedWithCause(Session *s, StatusCode code, double now_s);
    int allocRecord();
    void freeRecord(int index);

    // ---- Fault-tolerance helpers ----
    bool ftOn() const { return config_.ft.enabled; }
    bool otherLiveLeg(const RequestRecord &rec,
                      std::uint8_t except) const;
    void maybeRetry(RequestRecord &rec, int failed_device,
                    double now_s, StatusCode code);
    /** The pool just quarantined @p device: fold the window, then
     * schedule its first reprobe. */
    void onQuarantine(std::size_t device, double now_s);
    void scheduleReprobe(std::size_t device, double now_s);
    void evaluateBrownout(double now_s);
    FleetWindow *windowAt(double time_s);
    void flushQueues(double now_s);

    void runContentPass();
    FleetReport buildReport() const;

    FleetConfig config_;

    /** The served topology: every class and operating point compiles
     * prefixes of this one network. */
    std::unique_ptr<nn::Network> net_;
    std::array<ClassModel, kTrafficClasses> models_;
    std::shared_ptr<arch::ProgramCache> programCache_;

    /** Per-operating-point serving models (null with the tuner
     * off); compiles through programCache_, so retuned sessions
     * share compilations content-addressed. */
    std::unique_ptr<tune::OpModelCache> opModels_;
    SessionDb db_;
    DevicePool pool_;
    ClassedQueue<QueuedFrame> deviceQueue_;
    ClassedQueue<QueuedFrame> hostQueue_;

    /** Min-heap over a reserved vector (std::push_heap/pop_heap):
     * scheduling allocates nothing once the reserve is in place. */
    std::vector<Event> events_;
    std::uint64_t nextSeq_ = 0;
    double lastCompletionS_ = 0.0;
    double lastEventS_ = 0.0;
    std::size_t expiredSessions_ = 0;

    std::vector<RequestRecord> records_;
    int recordFreeHead_ = -1;

    /** End-to-end latency of every completion, per class. */
    std::array<LogHistogram, kTrafficClasses> latencyHist_;

    // ---- Fault-tolerance state (inert with the layer off) ----
    std::array<RetryBudget, kTrafficClasses> budgets_{};
    std::array<LogHistogram, kTrafficClasses> serviceHist_;
    double mixServiceS_ = 0.0;  ///< mix-weighted device service
    double mixHostFullS_ = 0.0; ///< mix-weighted full-host service
    int brownoutLevel_ = 0;
    double demandEwmaFps_ = -1.0; ///< <0 = unseeded
    std::uint64_t arrivalsSinceSweep_ = 0;
    double lastSweepS_ = 0.0;

    std::vector<FleetWindow> windows_;
    std::size_t windowHighWater_ = 0; ///< windows actually touched

    // Run-wide fault-tolerance counters (report pass-throughs).
    std::uint64_t attemptTimeouts_ = 0;
    std::uint64_t hedgeSkipped_ = 0;
    std::uint64_t probeSweeps_ = 0;
    std::uint64_t chaosKills_ = 0;
    std::uint64_t chaosRecovers_ = 0;
    std::uint64_t brownoutEscalations_ = 0;
    std::uint64_t tuneSteps_ = 0;
    std::uint64_t retunes_ = 0;

    /** Recurring events (ProbeSweep, TuneStep) currently in the
     * heap. Each reschedules itself only while *other* work remains
     * — without this count, two recurring events would keep each
     * other alive forever after the real workload drains. */
    std::size_t recurringPending_ = 0;
    std::uint64_t eventLoopAllocs_ = 0;
    std::uint64_t controlPlaneAllocs_ = 0;
};

} // namespace fleet
} // namespace redeye

#endif // REDEYE_FLEET_ENGINE_HH
