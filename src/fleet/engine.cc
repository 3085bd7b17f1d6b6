#include "fleet/engine.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/alloc.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "data/shapes_dataset.hh"
#include "models/mini_googlenet.hh"
#include "models/partition.hh"
#include "stream/frame_source.hh"
#include "stream/vision.hh"
#include "system/jetson.hh"

namespace redeye {
namespace fleet {

namespace {

// Counter-RNG pass salts: one independent stream per decision kind.
// Every draw is a pure function of its (session seed, pass, item)
// key, so draws under distinct passes are independent and the
// fault-tolerance layer's draws never perturb the class, arrival and
// jitter draws.
constexpr std::uint64_t kClassPass = 0xc1a55;
constexpr std::uint64_t kDevicePass = 0x0de7;
constexpr std::uint64_t kHostPass = 0x09057;
constexpr std::uint64_t kFailPass = 0xfa11;
constexpr std::uint64_t kBackoffPass = 0xbac0ff;
constexpr std::uint64_t kRetryPass = 0x4e72;
constexpr std::uint64_t kHedgePass = 0x43d9e;
constexpr std::uint64_t kProxyPass = 0x960c5;

/** Flow-control-only service time of a bypassed device: the frame
 * transits the array's routing fabric without engaging a module. */
constexpr double kBypassRouteS = 50e-6;

/** Lognormal sigma of the multiplicative service-time jitter. */
constexpr double kServiceJitterSigma = 0.1;

/** Stddev of the Gaussian noise on per-frame accuracy-proxy
 * observations fed to the tuner. */
constexpr double kTuneObservationNoise = 0.02;

// Request policy of the fault-tolerance layer (DESIGN.md §13); the
// device-health policy lives in device_pool.cc.

/** Backoff between retry attempts; the jitter draw comes from the
 * request's counter stream. */
constexpr BackoffConfig kRetryBackoff{0.002, 2.0, 0.05, 0.5};

/** Retry-budget token ceiling per class (burst allowance); the
 * sustained rate is QosClassConfig::retryBudgetRatio. */
constexpr double kRetryBudgetCap = 32.0;

/** Device-service latency percentile past which a hedge fires. */
constexpr double kHedgePercentile = 95.0;

/** A request must complete by arrival + kDeadlineMultiplier x its
 * class SLO or it is shed with DEADLINE_EXCEEDED. */
constexpr double kDeadlineMultiplier = 2.0;

/** An attempt predicted to outlive kAttemptTimeoutMultiplier x the
 * unloaded device service time is timed out and retried. */
constexpr double kAttemptTimeoutMultiplier = 8.0;

/** Replay examples per shape class for the content pass. */
constexpr std::size_t kContentPerClass = 2;

std::vector<ClassedQueueClass>
queueClasses(const QosTable &qos, std::size_t capacity)
{
    std::vector<ClassedQueueClass> classes(kTrafficClasses);
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        classes[c].weight = qos[c].weight;
        classes[c].reserved = static_cast<std::size_t>(
            qos[c].reservedShare * static_cast<double>(capacity));
        classes[c].maxSlots = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   qos[c].maxShare * static_cast<double>(capacity)));
    }
    return classes;
}

/** Pool config with the array pinned to the served network's input. */
DevicePoolConfig
poolConfigFor(const FleetConfig &config)
{
    DevicePoolConfig pool = config.pool;
    pool.array.columns = models::kMiniInputSize;
    return pool;
}

/** Content frame index: pure function of (session seed, frame). */
std::uint64_t
contentKey(std::uint64_t session_seed, std::uint64_t frame)
{
    return splitmix64(session_seed ^ splitmix64(frame * kPassSalt));
}

/**
 * willFail-draw item: unique per (frame, attempt, leg) while
 * attempts stay below 4 and legs below 2 — both structural limits
 * (QosClassConfig::maxAttempts, checked by the constructor, and the
 * two-leg record).
 */
std::uint64_t
failItem(std::uint64_t frame, std::uint8_t attempt, std::uint8_t leg)
{
    return frame * 8 + static_cast<std::uint64_t>(attempt) * 2 + leg;
}

/**
 * The constructor's config checks: @p config when every check holds.
 * They run before any member is built from the config, since
 * queueClasses converts the QoS shares to slot counts.
 */
const FleetConfig &
checkedConfig(const FleetConfig &config)
{
    fatal_if(config.sessions == 0, "fleet needs sessions");
    fatal_if(config.framesPerSession == 0, "fleet needs frames");
    fatal_if(!(std::isfinite(config.sessionRateHz) &&
               config.sessionRateHz > 0.0),
             "session rate must be finite and positive, got ",
             config.sessionRateHz);
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        fatal_if(!(std::isfinite(config.mix[c]) && config.mix[c] >= 0.0),
                 "mix[", c, "] must be finite and non-negative, got ",
                 config.mix[c]);
        const QosClassConfig &q = config.qos[c];
        fatal_if(q.maxAttempts < 1 || q.maxAttempts > 4,
                 "maxAttempts must be in [1, 4], got ", q.maxAttempts);
        // The negations also reject NaN shares.
        fatal_if(!(q.reservedShare >= 0.0 && q.reservedShare <= 1.0),
                 "qos[", c, "].reservedShare must be in [0, 1], got ",
                 q.reservedShare);
        fatal_if(!(q.maxShare >= 0.0 && q.maxShare <= 1.0), "qos[", c,
                 "].maxShare must be in [0, 1], got ", q.maxShare);
        fatal_if(q.reservedShare > q.maxShare, "qos[", c,
                 "].reservedShare (", q.reservedShare,
                 ") must not exceed maxShare (", q.maxShare, ")");
    }
    // An inverted band would flip the brownout level on every sweep.
    fatal_if(config.ft.brownoutLow >= config.ft.brownoutHigh,
             "ft.brownoutLow (", config.ft.brownoutLow,
             ") must be below ft.brownoutHigh (",
             config.ft.brownoutHigh, ")");
    // Negative or NaN periods would silently switch sweeps or windows
    // off, and infinite ones reach integer window indices. A tuner
    // without a step period would observe but never step, and a NaN
    // one would put NaN times into the event heap.
    fatal_if(!std::isfinite(config.ft.probePeriodS) ||
                 config.ft.probePeriodS < 0.0,
             "ft.probePeriodS must be finite and non-negative, got ",
             config.ft.probePeriodS);
    fatal_if(!std::isfinite(config.windowS) || config.windowS < 0.0,
             "windowS must be finite and non-negative, got ",
             config.windowS);
    fatal_if(config.tune.enabled && (!std::isfinite(config.tune.windowS) ||
                                     config.tune.windowS <= 0.0),
             "tune.windowS must be finite and positive with the tuner "
             "enabled, got ",
             config.tune.windowS);
    // Only the fault-tolerance layer schedules chaos: with it off, a
    // script would be silently dropped.
    fatal_if(!config.chaos.empty() && !config.ft.enabled,
             "chaos needs ft.enabled; ", config.chaos.size(),
             " chaos events would be ignored");
    for (std::size_t i = 0; i < config.chaos.size(); ++i)
        fatal_if(config.chaos[i].device >= config.pool.devices, "chaos[",
                 i, "].device (", config.chaos[i].device,
                 ") is outside the pool of ", config.pool.devices,
                 " devices");
    return config;
}

} // namespace

FleetEngine::FleetEngine(const FleetConfig &config)
    : config_(checkedConfig(config)),
      programCache_(std::make_shared<arch::ProgramCache>()),
      db_(config.sessions),
      pool_(poolConfigFor(config)),
      deviceQueue_(std::max<std::size_t>(1, config.queueCapacity),
                   queueClasses(config.qos, config.queueCapacity)),
      hostQueue_(std::max<std::size_t>(1, config.queueCapacity),
                 queueClasses(config.qos, config.queueCapacity)),
      latencyHist_{{makeLatencyHistogram(), makeLatencyHistogram(),
                    makeLatencyHistogram()}},
      serviceHist_{{makeLatencyHistogram(), makeLatencyHistogram(),
                    makeLatencyHistogram()}}
{
    static_assert(kTrafficClasses == 3,
                  "histogram initializers assume three classes");

    // Every class serves the same trained topology; only the
    // operating point differs, so the shared ProgramCache keys
    // exactly one compilation per class.
    Rng init(0x3317a11);
    net_ = models::buildMiniGoogLeNet(data::kShapeClasses, init);
    buildClassModels();

    if (config_.tune.enabled) {
        // One operating-point model cache for the whole fleet: every
        // class serves the same topology, so retuned sessions of any
        // class share compilations through the one ProgramCache.
        tune::OpModelCache::Config mc;
        mc.adcBoostBits = config_.pool.degrade.adcBoostBits;
        opModels_ = std::make_unique<tune::OpModelCache>(
            *net_, programCache_, mc);
    }

    for (std::size_t c = 0; c < kTrafficClasses; ++c)
        budgets_[c] = RetryBudget(config_.qos[c].retryBudgetRatio,
                                  kRetryBudgetCap, kRetryBudgetCap);
}

FleetEngine::~FleetEngine() = default;

void
FleetEngine::buildClassModels()
{
    const double full_macs = static_cast<double>(net_->totalMacs());
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        const QosClassConfig &q = config_.qos[c];
        ClassModel &m = models_[c];
        m.analogLayers = models::miniGoogLeNetAnalogLayers(q.depth);
        m.deviceConfig.adcBits = q.adcBits;
        m.deviceConfig.convSnrDb = q.convSnrDb;
        m.deviceConfig.columns = models::kMiniInputSize;
        tune::OpModel &om = m.serving;
        om = tune::deviceModel(
            *net_, *programCache_,
            tune::OperatingPoint{q.convSnrDb, q.adcBits, q.depth},
            config_.pool.degrade.adcBoostBits);

        // The Jetson line anchored at this class's own tail, so every
        // depth's tail costs the measured depth-5 time.
        // tune::OpModelCache anchors at the real depth-5 tail; the
        // two prices diverge below depth 5 (DESIGN.md §11).
        const double tail_macs = static_cast<double>(
            models::digitalTailMacs(*net_, m.analogLayers));
        sys::JetsonTk1 host(sys::JetsonParams::paper(
            sys::JetsonProcessor::GPU, full_macs, tail_macs));
        om.hostTailS = host.executionTimeS(tail_macs);
        om.hostTailJ = host.executionEnergyJ(tail_macs);
        om.hostFullS = host.executionTimeS(full_macs);
        om.hostFullJ = host.executionEnergyJ(full_macs);

        m.sloS = q.sloMultiplier * (om.deviceS + om.hostTailS);
    }

    // Mix-weighted service times for the brownout controller's
    // capacity heuristic. The effective class shares mirror the
    // admission draw: cumulative mix, with the remainder of the unit
    // interval falling to the last class.
    double prev = 0.0;
    double cum = 0.0;
    std::array<double, kTrafficClasses> share{};
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        cum += config_.mix[c];
        const double hi = std::clamp(cum, 0.0, 1.0);
        share[c] = std::max(0.0, hi - prev);
        prev = hi;
    }
    share[kTrafficClasses - 1] += std::max(0.0, 1.0 - prev);
    mixServiceS_ = 0.0;
    mixHostFullS_ = 0.0;
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        mixServiceS_ += share[c] * models_[c].serving.deviceS;
        mixHostFullS_ += share[c] * models_[c].serving.hostFullS;
    }
}

double
FleetEngine::classSloS(TrafficClass cls) const
{
    return models_[classIndex(cls)].sloS;
}

const tune::OpModel &
FleetEngine::servingFor(const Session &s) const
{
    return s.opModel != nullptr ? *s.opModel
                                : models_[classIndex(s.cls)].serving;
}

void
FleetEngine::schedule(Event event)
{
    event.seq = nextSeq_++;
    events_.push_back(std::move(event));
    std::push_heap(events_.begin(), events_.end(), EventAfter{});
}

bool
FleetEngine::popEvent(Event &out)
{
    if (events_.empty())
        return false;
    std::pop_heap(events_.begin(), events_.end(), EventAfter{});
    out = std::move(events_.back());
    events_.pop_back();
    return true;
}

void
FleetEngine::admitSessions()
{
    for (std::size_t i = 0; i < config_.sessions; ++i) {
        const std::uint64_t id = i + 1; // SessionDb ids start at 1

        // Class draw against the cumulative mix; the remainder of the
        // unit interval falls through to the last class.
        const double u =
            streamRng(config_.seed, kClassPass, id).uniform();
        double cum = 0.0;
        TrafficClass cls = TrafficClass::BestEffort;
        for (std::size_t c = 0; c < kTrafficClasses; ++c) {
            cum += config_.mix[c];
            if (u < cum) {
                cls = static_cast<TrafficClass>(c);
                break;
            }
        }

        Session s;
        s.id = id;
        s.cls = cls;
        s.seed = splitmix64(config_.seed ^ splitmix64(id));
        s.arrivals = stream::ArrivalSchedule::poisson(
            config_.sessionRateHz, s.seed);

        // Re-deriving the program per session is the content-address
        // demonstration: one compile per class, N-1 cache hits.
        const ClassModel &m = models_[classIndex(cls)];
        auto prog = programCache_->compileOrStatus(
            *net_, m.analogLayers, m.deviceConfig);
        fatal_if(!prog.ok(), prog.status().message());
        s.program = std::move(prog.value());

        if (id <= config_.contentSessions) {
            s.predictions.assign(config_.framesPerSession, -1);
            s.completedMask.assign(config_.framesPerSession, 0);
        }

        if (config_.tune.enabled) {
            // Each session's controller starts at its class operating
            // point: the tuner refines the QoS table's static choice
            // rather than replacing it.
            tune::AutoTuneConfig tc = config_.tune;
            tc.initial = m.serving.op;
            s.tuner = std::make_unique<tune::AutoTuner>(tc);
        }

        Event arrival;
        arrival.kind = Event::Kind::Arrival;
        arrival.qf.session = id;
        arrival.qf.frame = 0;
        arrival.timeS = db_.admit(std::move(s)).arrivals.interarrivalS(0);
        schedule(std::move(arrival));
    }

    if (ftOn()) {
        for (std::size_t i = 0; i < config_.chaos.size(); ++i) {
            Event e;
            e.kind = Event::Kind::Chaos;
            e.timeS = config_.chaos[i].timeS;
            e.resource = static_cast<int>(i);
            schedule(std::move(e));
        }
        if (config_.ft.probePeriodS > 0.0)
            scheduleRecurring(Event::Kind::ProbeSweep,
                              config_.ft.probePeriodS);
    }
    if (config_.tune.enabled)
        scheduleRecurring(Event::Kind::TuneStep, config_.tune.windowS);
}

void
FleetEngine::scheduleRecurring(Event::Kind kind, double time_s)
{
    // Recurring events (sweeps, tune steps) continue only while real
    // work is pending; recurring events don't count, or two of them
    // would keep each other alive forever after the workload drains.
    if (events_.size() <= recurringPending_)
        return;
    Event e;
    e.kind = kind;
    e.timeS = time_s;
    schedule(std::move(e));
    ++recurringPending_;
}

FleetWindow *
FleetEngine::windowAt(double time_s)
{
    if (windows_.empty())
        return nullptr;
    // Clamped before the cast: a time far past the table (a sweep
    // scheduled after the work drains) lands in the last window.
    const auto idx = static_cast<std::size_t>(
        std::min(std::max(0.0, time_s) / config_.windowS,
                 static_cast<double>(windows_.size() - 1)));
    FleetWindow &w = windows_[idx];
    w.activeDevicesMin =
        std::min(w.activeDevicesMin, pool_.activeDevices());
    w.brownoutLevel = std::max(w.brownoutLevel, brownoutLevel_);
    windowHighWater_ = std::max(windowHighWater_, idx + 1);
    return &w;
}

void
FleetEngine::shedWithCause(Session *s, StatusCode code, double now_s)
{
    ++s->stats.shed;
    switch (code) {
      case StatusCode::DeadlineExceeded:
        ++s->stats.shedDeadline;
        break;
      case StatusCode::Unavailable:
        ++s->stats.shedUnavailable;
        break;
      default:
        // Queue-full, eviction, budget exhaustion: the frame lost a
        // resource race (RESOURCE_EXHAUSTED).
        ++s->stats.shedResource;
        break;
    }
    if (FleetWindow *w = windowAt(now_s))
        ++w->shed[classIndex(s->cls)];
}

bool
FleetEngine::enqueue(ClassedQueue<QueuedFrame> &queue, std::size_t cls,
                     QueuedFrame qf, double now_s)
{
    std::optional<QueuedFrame> evicted;
    if (queue.push(cls, std::move(qf), &evicted) !=
        ClassedPush::Admitted)
        return false;
    // Room may come from evicting a lower-priority frame, which was
    // admitted and so sheds.
    if (evicted) {
        if (Session *victim = db_.find(evicted->session))
            shedWithCause(victim, StatusCode::ResourceExhausted,
                          now_s);
    }
    return true;
}

int
FleetEngine::allocRecord()
{
    fatal_if(recordFreeHead_ < 0, "request record pool exhausted");
    const int i = recordFreeHead_;
    RequestRecord &rec = records_[static_cast<std::size_t>(i)];
    recordFreeHead_ = rec.freeNext;
    rec.freeNext = -1;
    rec.legCount = 0;
    rec.closed = false;
    return i;
}

void
FleetEngine::freeRecord(int index)
{
    RequestRecord &rec = records_[static_cast<std::size_t>(index)];
    ++rec.gen; // invalidate in-flight HedgeFire/AttemptTimeout refs
    rec.freeNext = recordFreeHead_;
    recordFreeHead_ = index;
}

bool
FleetEngine::otherLiveLeg(const RequestRecord &rec,
                          std::uint8_t except) const
{
    for (std::uint8_t j = 0; j < rec.legCount; ++j) {
        if (j == except)
            continue;
        if (!rec.legs[j].done && !rec.legs[j].dead)
            return true;
    }
    return false;
}

void
FleetEngine::onArrival(const Event &event)
{
    const double now = event.timeS;
    Session *s = db_.find(event.qf.session);
    fatal_if(s == nullptr, "arrival for unknown session");
    ++s->stats.offered;
    s->lastActiveS = now;

    if (event.qf.frame + 1 < config_.framesPerSession) {
        Event next;
        next.kind = Event::Kind::Arrival;
        next.qf.session = s->id;
        next.qf.frame = event.qf.frame + 1;
        next.timeS = now + s->arrivals.interarrivalS(
                               event.qf.frame + 1);
        schedule(std::move(next));
    }

    const std::size_t cls = classIndex(s->cls);
    ++arrivalsSinceSweep_;

    // Brownout level >= 1: BEST_EFFORT arrivals are shed at the
    // door. Counted admit-then-shed so the conservation invariants
    // (offered == admitted + dropped, admitted == completed + shed)
    // hold with the controller engaged.
    if (brownoutLevel_ >= 1 && s->cls == TrafficClass::BestEffort) {
        ++s->stats.admitted;
        ++s->stats.shed;
        ++s->stats.shedBrownout;
        if (FleetWindow *w = windowAt(now))
            ++w->shed[cls];
        return;
    }

    QueuedFrame qf;
    qf.session = s->id;
    qf.frame = event.qf.frame;
    qf.arrivalS = now;
    if (ftOn())
        qf.deadlineS = now + kDeadlineMultiplier * models_[cls].sloS;

    if (enqueue(deviceQueue_, cls, qf, now)) {
        ++s->stats.admitted;
        budgets_[cls].credit();
    } else {
        ++s->stats.dropped;
    }

    dispatchDevices(now);
}

void
FleetEngine::dispatchDevices(double now_s)
{
    while (pool_.hasIdleDevice()) {
        QueuedFrame qf;
        std::size_t cls = 0;
        if (!deviceQueue_.tryPopWeighted(qf, cls))
            break;
        Session *s = db_.find(qf.session);
        fatal_if(s == nullptr, "queued frame of unknown session");

        // Expired requests are shed at the dequeue point: no device
        // time is spent on a frame that already missed its deadline.
        if (qf.deadlineS > 0.0 && now_s >= qf.deadlineS) {
            shedWithCause(s, StatusCode::DeadlineExceeded, now_s);
            continue;
        }

        // A retry avoids the device that failed it, unless that is
        // the only idle one: taking it beats stalling the request.
        int dev = pool_.leaseDevice(qf.avoidDevice);
        if (dev < 0)
            dev = pool_.leaseDevice();

        const int rec_i = allocRecord();
        RequestRecord &rec = records_[static_cast<std::size_t>(rec_i)];
        rec.qf = qf; // canonical (pre-leg) copy for retry/hedge
        const double service = launchLeg(rec_i, 0, dev, now_s);
        if (!ftOn())
            continue;
        serviceHist_[cls].add(service);

        const double device_s = servingFor(*s).deviceS;
        auto timer = [&](Event::Kind kind, double time_s,
                         std::uint8_t leg) {
            Event e;
            e.kind = kind;
            e.timeS = time_s;
            e.record = rec_i;
            e.leg = leg;
            e.gen = rec.gen;
            schedule(std::move(e));
        };

        // Per-attempt timeout, scheduled only when this attempt is
        // predicted to outlive it (the event would otherwise be a
        // guaranteed no-op).
        double timeout_at = now_s + kAttemptTimeoutMultiplier * device_s;
        if (qf.deadlineS > 0.0)
            timeout_at = std::min(timeout_at, qf.deadlineS);
        if (now_s + service > timeout_at)
            timer(Event::Kind::AttemptTimeout, timeout_at, 0);

        // Hedge: first attempts of hedging classes predicted past the
        // class's device-service percentile get one duplicate
        // dispatch at that percentile mark.
        if (qf.attempt == 0 && config_.qos[cls].hedge) {
            const double delay = serviceHist_[cls].percentileOr(
                kHedgePercentile, 2.0 * device_s);
            if (service > delay && (qf.deadlineS <= 0.0 ||
                                    now_s + delay < qf.deadlineS))
                timer(Event::Kind::HedgeFire, now_s + delay, 1);
        }
    }
}

double
FleetEngine::launchLeg(int record, std::uint8_t leg, int device,
                       double now_s)
{
    RequestRecord &rec = records_[static_cast<std::size_t>(record)];
    const Session *s = db_.find(rec.qf.session);
    const tune::OpModel &m = servingFor(*s);
    const DeviceSlot &slot =
        pool_.device(static_cast<std::size_t>(device));

    // Leg-specific copy: bypass/energy depend on the leased device,
    // and a retry or hedge of the same request may land on a
    // differently-degraded one.
    QueuedFrame qf = rec.qf;
    stream::DegradeMode mode = slot.health;

    // Brownout level >= 2: BACKGROUND first legs are force-routed
    // around the analog stage so the surviving arrays serve
    // INTERACTIVE. The frame completes (degraded); it is not shed.
    if (leg == 0 && brownoutLevel_ >= 2 &&
        s->cls == TrafficClass::Background &&
        mode != stream::DegradeMode::Bypass) {
        mode = stream::DegradeMode::Bypass;
        qf.degraded = true;
    }

    double service = kBypassRouteS;
    double energy = 0.0;
    switch (mode) {
      case stream::DegradeMode::Normal:
        service = m.deviceS;
        energy = m.analogJ;
        break;
      case stream::DegradeMode::Remap:
        // Column sharing reruns the dead columns' work on healthy
        // neighbours: time and energy stretch by 1/(1 - dead).
        service = m.remapDeviceS / (1.0 - slot.deadColumnFraction);
        energy = m.remapAnalogJ / (1.0 - slot.deadColumnFraction);
        break;
      case stream::DegradeMode::Bypass:
        qf.bypass = true;
        break;
    }

    // Retries and hedges jitter under their own passes, so the first
    // leg of attempt 0 draws the same jitter with the layer on or off.
    std::uint64_t pass = kDevicePass;
    std::uint64_t item = qf.frame;
    if (leg == 1) {
        pass = kHedgePass;
    } else if (qf.attempt > 0) {
        pass = kRetryPass;
        item = qf.frame * 8 + qf.attempt;
    }
    service *= std::exp(kServiceJitterSigma *
                        streamGaussian(s->seed, pass, item));
    qf.analogJ = energy;

    // Failure draw: undetected dead columns corrupt the output with
    // probability proportional to their share. Bypass legs never
    // touch the array and never fail.
    bool will_fail = false;
    if (ftOn() && !qf.bypass) {
        const double p =
            pool_.failureProbability(static_cast<std::size_t>(device));
        if (p > 0.0)
            will_fail = streamUniform(s->seed, kFailPass,
                                      failItem(qf.frame, qf.attempt,
                                               leg)) < p;
    }
    rec.legs[leg] = RequestLeg{device, false, false, will_fail};
    rec.legCount = leg + 1;
    ++rec.legsInFlight;

    Event done;
    done.kind = Event::Kind::DeviceDone;
    done.timeS = now_s + service;
    done.qf = qf;
    done.resource = device;
    done.busyS = service;
    done.energyJ = energy;
    done.record = record;
    done.leg = leg;
    done.gen = rec.gen;
    schedule(std::move(done));
    return service;
}

void
FleetEngine::onDeviceDone(const Event &event)
{
    const double now = event.timeS;
    pool_.releaseDevice(static_cast<std::size_t>(event.resource),
                        event.busyS, event.energyJ);

    Session *s = db_.find(event.qf.session);
    fatal_if(s == nullptr, "device completion for unknown session");

    RequestRecord &rec =
        records_[static_cast<std::size_t>(event.record)];
    // A physical leg pins its record until this completion arrives,
    // so the generation cannot have moved.
    fatal_if(rec.gen != event.gen,
             "device completion for a recycled record");
    RequestLeg &leg = rec.legs[event.leg];
    leg.done = true;
    fatal_if(rec.legsInFlight == 0, "leg count out of sync");
    --rec.legsInFlight;

    if (rec.closed || leg.dead) {
        // A hedge-race loser or timed-out attempt draining; its
        // outcome was already decided. Lazy cancellation: the leg
        // ran to completion on silicon, only its result is dropped.
    } else if (leg.willFail) {
        leg.dead = true;
        const std::size_t dev =
            static_cast<std::size_t>(event.resource);
        if (pool_.recordServeError(dev))
            onQuarantine(dev, now);
        if (!otherLiveLeg(rec, event.leg))
            maybeRetry(rec, static_cast<int>(dev), now,
                       StatusCode::Unavailable);
    } else {
        // First good leg wins; any other in-flight leg drains as a
        // loser.
        rec.closed = true;
        if (event.leg >= 1)
            ++s->stats.hedgeWins;

        // Served by the device but no room before the host tier: the
        // frame dies mid-pipeline — a shed, not a drop.
        if (!enqueue(hostQueue_, classIndex(s->cls), event.qf, now))
            shedWithCause(s, StatusCode::ResourceExhausted, now);
    }

    if (rec.closed && rec.legsInFlight == 0)
        freeRecord(event.record);

    dispatchHosts(now);
    dispatchDevices(now);
}

void
FleetEngine::maybeRetry(RequestRecord &rec, int failed_device,
                        double now_s, StatusCode code)
{
    Session *s = db_.find(rec.qf.session);
    fatal_if(s == nullptr, "retry decision for unknown session");
    const std::size_t cls = classIndex(s->cls);
    const QosClassConfig &q = config_.qos[cls];
    rec.closed = true;

    StatusCode terminal = code;
    if (retryableStatus(code) &&
        rec.qf.attempt + 1u < q.maxAttempts) {
        const double u = streamUniform(
            s->seed, kBackoffPass, rec.qf.frame * 8 + rec.qf.attempt);
        const double delay =
            backoffDelayS(kRetryBackoff, rec.qf.attempt, u);
        if (rec.qf.deadlineS > 0.0 &&
            now_s + delay >= rec.qf.deadlineS) {
            // The backoff alone would blow the deadline.
            terminal = StatusCode::DeadlineExceeded;
        } else if (!budgets_[cls].tryAcquire()) {
            // Retry-storm guard: the class spent its budget.
            terminal = StatusCode::ResourceExhausted;
        } else {
            ++s->stats.retries;
            if (FleetWindow *w = windowAt(now_s))
                ++w->retries;
            Event r;
            r.kind = Event::Kind::Retry;
            r.timeS = now_s + delay;
            r.qf = rec.qf;
            ++r.qf.attempt;
            r.qf.avoidDevice =
                static_cast<std::int16_t>(failed_device);
            schedule(std::move(r));
            return;
        }
    }
    shedWithCause(s, terminal, now_s);
}

void
FleetEngine::onRetry(const Event &event)
{
    const double now = event.timeS;
    Session *s = db_.find(event.qf.session);
    fatal_if(s == nullptr, "retry for unknown session");

    if (event.qf.deadlineS > 0.0 && now >= event.qf.deadlineS) {
        shedWithCause(s, StatusCode::DeadlineExceeded, now);
        return;
    }

    // Re-enqueue under the original admission (the frame never
    // stopped being admitted); a rejection here is a terminal
    // resource shed, not a drop.
    if (!enqueue(deviceQueue_, classIndex(s->cls), event.qf, now))
        shedWithCause(s, StatusCode::ResourceExhausted, now);
    dispatchDevices(now);
}

void
FleetEngine::onAttemptTimeout(const Event &event)
{
    RequestRecord &rec =
        records_[static_cast<std::size_t>(event.record)];
    if (rec.gen != event.gen || rec.closed)
        return; // request already resolved; stale timer
    RequestLeg &leg = rec.legs[event.leg];
    if (leg.done || leg.dead)
        return;

    // Lazy cancellation: the attempt keeps its device until its
    // DeviceDone drains, but its result no longer counts. The
    // draining leg pins the record, which is freed at that leg's
    // DeviceDone.
    leg.dead = true;
    ++attemptTimeouts_;
    if (!otherLiveLeg(rec, event.leg))
        maybeRetry(rec, leg.device, event.timeS,
                   StatusCode::DeadlineExceeded);
}

void
FleetEngine::onHedgeFire(const Event &event)
{
    RequestRecord &rec =
        records_[static_cast<std::size_t>(event.record)];
    if (rec.gen != event.gen || rec.closed || rec.legCount >= 2)
        return;
    const RequestLeg &primary = rec.legs[0];
    if (primary.done || primary.dead)
        return;
    const double now = event.timeS;
    if (rec.qf.deadlineS > 0.0 && now >= rec.qf.deadlineS)
        return;

    // Hedge on a *different* device — duplicating onto the same
    // (possibly sick) device defeats the point. No fallback: when
    // only the primary's device is idle, skip.
    const int dev = pool_.leaseDevice(primary.device);
    if (dev < 0) {
        ++hedgeSkipped_;
        return;
    }
    launchLeg(event.record, 1, dev, now);
    ++db_.find(rec.qf.session)->stats.hedges;
    if (FleetWindow *w = windowAt(now))
        ++w->hedges;
}

void
FleetEngine::onQuarantine(std::size_t device, double now_s)
{
    windowAt(now_s); // fold the active-device low-water
    scheduleReprobe(device, now_s);
}

void
FleetEngine::scheduleReprobe(std::size_t device, double now_s)
{
    Event r;
    r.kind = Event::Kind::Reprobe;
    r.timeS = now_s + pool_.reprobeDelayS(device);
    r.resource = static_cast<int>(device);
    schedule(std::move(r));
}

void
FleetEngine::evaluateBrownout(double now_s)
{
    const double span = now_s - lastSweepS_;
    if (span <= 0.0)
        return;
    const double inst =
        static_cast<double>(arrivalsSinceSweep_) / span;
    demandEwmaFps_ = demandEwmaFps_ < 0.0
                         ? inst
                         : 0.5 * inst + 0.5 * demandEwmaFps_;

    // Healthy capacity under the traffic-mix-weighted frame times.
    double capacity_fps =
        pool_.capacityFps(mixServiceS_, mixHostFullS_);
    if (capacity_fps <= 0.0)
        capacity_fps = 1e-9;

    const double ratio = demandEwmaFps_ / capacity_fps;
    if (ratio > config_.ft.brownoutHigh && brownoutLevel_ < 2) {
        ++brownoutLevel_;
        ++brownoutEscalations_;
    } else if (ratio < config_.ft.brownoutLow &&
               brownoutLevel_ > 0) {
        --brownoutLevel_;
    }
    windowAt(now_s); // fold the new level into the window
}

void
FleetEngine::onProbeSweep(const Event &event)
{
    // Control plane: probing builds ColumnArrays (inherently
    // allocating); its share is metered apart from the data plane.
    alloc::AllocationMeter meter;
    const double now = event.timeS;
    --recurringPending_; // this sweep left the heap
    ++probeSweeps_;

    for (std::size_t i = 0; i < pool_.devices(); ++i) {
        if (pool_.sweep(i))
            onQuarantine(i, now);
    }

    evaluateBrownout(now);
    arrivalsSinceSweep_ = 0;
    lastSweepS_ = now;
    scheduleRecurring(Event::Kind::ProbeSweep,
                      now + config_.ft.probePeriodS);
    controlPlaneAllocs_ += meter.delta();

    dispatchDevices(now);
}

void
FleetEngine::onReprobe(const Event &event)
{
    alloc::AllocationMeter meter;
    const double now = event.timeS;
    const auto device = static_cast<std::size_t>(event.resource);
    const ReprobeOutcome outcome = pool_.reprobe(device);
    if (outcome == ReprobeOutcome::Waiting)
        scheduleReprobe(device, now);
    else
        windowAt(now); // fold the active-device low-water
    controlPlaneAllocs_ += meter.delta();

    if (outcome == ReprobeOutcome::Readmitted)
        dispatchDevices(now);
}

void
FleetEngine::onChaos(const Event &event)
{
    alloc::AllocationMeter meter;
    const ChaosEvent &ce =
        config_.chaos[static_cast<std::size_t>(event.resource)];
    if (ce.kind == ChaosEvent::Kind::Kill) {
        ++chaosKills_;
        const fault::FaultCampaign campaign =
            fault::FaultCampaign::deadColumns(
                ce.deadFraction,
                splitmix64(config_.seed ^
                           splitmix64(0xc4a05 +
                                      static_cast<std::uint64_t>(
                                          event.resource))));
        // Onset 0: the damage is live immediately. The serving plan
        // is deliberately left stale — detection (serve errors, the
        // next probe sweep) is the runtime's job.
        pool_.setDeviceFaults(
            ce.device,
            std::make_shared<const fault::FaultModel>(
                campaign, pool_.config().array.columns));
    } else {
        ++chaosRecovers_;
        pool_.setDeviceFaults(ce.device, nullptr);
        // A quarantined device's pending reprobe will see the clean
        // array; an active one is upgraded by the next sweep.
    }
    controlPlaneAllocs_ += meter.delta();
}

void
FleetEngine::onTuneStep(const Event &event)
{
    // Control plane: a retune may compile new programs through the
    // shared caches (inherently allocating), so the handler's share
    // is metered apart from the data plane like probes and chaos.
    alloc::AllocationMeter meter;
    const double now = event.timeS;
    --recurringPending_; // this step left the heap
    ++tuneSteps_;

    const double suspect = pool_.suspectFraction();
    const auto cost = [this](const tune::OperatingPoint &op,
                             stream::DegradeMode mode) {
        return opModels_->costFor(op, mode);
    };

    // Ascending session id: the step order is part of the
    // deterministic event schedule (SessionDb iteration order is
    // not).
    for (std::uint64_t id = 1; id <= config_.sessions; ++id) {
        Session *s = db_.find(id);
        if (s == nullptr || !s->tuner)
            continue;
        const tune::TuneDecision d = s->tuner->step(suspect, cost);
        if (d.switched) {
            ++retunes_;
            // Re-key the session: fetch (or build) the new operating
            // point's serving model and swap the program handle. Old
            // entries stay warm in both caches — a scene that returns
            // re-hits its previous key.
            const tune::OpModel &m =
                opModels_->fetch(s->tuner->op());
            s->opModel = &m;
            s->program = m.program;
        }
    }

    scheduleRecurring(Event::Kind::TuneStep, now + config_.tune.windowS);
    controlPlaneAllocs_ += meter.delta();

    dispatchDevices(now);
}

void
FleetEngine::dispatchHosts(double now_s)
{
    while (pool_.hasIdleHost()) {
        QueuedFrame qf;
        std::size_t cls = 0;
        if (!hostQueue_.tryPopWeighted(qf, cls))
            break;
        Session *s = db_.find(qf.session);
        fatal_if(s == nullptr, "queued frame of unknown session");

        if (qf.deadlineS > 0.0 && now_s >= qf.deadlineS) {
            shedWithCause(s, StatusCode::DeadlineExceeded, now_s);
            continue;
        }

        const int host = pool_.leaseHost();
        const tune::OpModel &m = servingFor(*s);

        const double service =
            (qf.bypass ? m.hostFullS : m.hostTailS) *
            std::exp(kServiceJitterSigma *
                     streamGaussian(s->seed, kHostPass, qf.frame));
        const double energy = qf.bypass ? m.hostFullJ : m.hostTailJ;

        Event done;
        done.kind = Event::Kind::HostDone;
        done.timeS = now_s + service;
        done.qf = qf;
        done.resource = host;
        done.busyS = service;
        done.energyJ = energy;
        schedule(std::move(done));
    }
}

void
FleetEngine::onHostDone(const Event &event)
{
    const double now = event.timeS;
    pool_.releaseHost(static_cast<std::size_t>(event.resource),
                      event.busyS);

    Session *s = db_.find(event.qf.session);
    fatal_if(s == nullptr, "host completion for unknown session");
    const std::size_t cls = classIndex(s->cls);
    const ClassModel &m = models_[cls];

    const double latency = now - event.qf.arrivalS;
    ++s->stats.completed;
    latencyHist_[cls].add(latency);
    s->stats.systemJ.add(event.qf.analogJ + event.energyJ);
    const bool violated = latency > m.sloS;
    if (violated)
        ++s->stats.sloViolations;
    if (event.qf.degraded)
        ++s->stats.degraded;
    if (FleetWindow *w = windowAt(now)) {
        ++w->completed[cls];
        if (violated)
            ++w->sloViolations[cls];
    }
    s->lastActiveS = now;
    lastCompletionS_ = std::max(lastCompletionS_, now);

    if (event.qf.frame < s->completedMask.size())
        s->completedMask[event.qf.frame] = 1;

    if (s->tuner) {
        // Feedback tap (data plane, allocation-free): synthesize the
        // completion's accuracy proxy from the scene in effect and
        // the operating point served, add counter-keyed observation
        // noise, and fold it into the session's open window.
        const tune::Scene scene = tune::sceneAt(config_.scenes, now);
        const bool bypassed = event.qf.bypass || event.qf.degraded;
        double proxy = tune::accuracyProxy(s->tuner->op(),
                                           scene.difficultyDb,
                                           bypassed,
                                           config_.tune.proxy);
        proxy += kTuneObservationNoise *
                 streamGaussian(s->seed, kProxyPass, event.qf.frame);
        proxy = std::clamp(proxy, 0.0, 1.0);
        tune::FeedbackSample fb;
        fb.accuracyProxy = proxy;
        fb.energyJ = event.qf.analogJ + event.energyJ;
        fb.bypassed = bypassed;
        s->tuner->observe(fb);
    }

    dispatchHosts(now);
}

void
FleetEngine::flushQueues(double now_s)
{
    // Terminal-status guarantee: whatever is still queued when the
    // event loop drains (every device quarantined or retired, say)
    // is shed UNAVAILABLE rather than silently lost. A no-op with
    // the layer off — the loop always drains its queues then.
    QueuedFrame qf;
    std::size_t cls = 0;
    for (ClassedQueue<QueuedFrame> *queue : {&deviceQueue_, &hostQueue_}) {
        while (queue->tryPopWeighted(qf, cls)) {
            if (Session *s = db_.find(qf.session))
                shedWithCause(s, StatusCode::Unavailable, now_s);
        }
    }
}

void
FleetEngine::runContentPass()
{
    if (config_.contentSessions == 0)
        return;

    // Completed frames of content sessions, grouped per class so one
    // operating point serves each group; a frame's content key is a
    // pure function of (session seed, frame).
    struct Item {
        Session *session;
        std::uint64_t frame;
    };
    std::array<std::vector<Item>, kTrafficClasses> items;
    std::array<std::vector<std::uint64_t>, kTrafficClasses> keys;
    const std::uint64_t last =
        std::min<std::uint64_t>(config_.contentSessions, config_.sessions);
    for (std::uint64_t id = 1; id <= last; ++id) {
        Session *s = db_.find(id);
        const std::size_t c = classIndex(s->cls);
        for (std::uint64_t f = 0; f < s->completedMask.size(); ++f) {
            if (s->completedMask[f]) {
                items[c].push_back(Item{s, f});
                keys[c].push_back(contentKey(s->seed, f));
            }
        }
    }

    const data::Dataset dataset = stream::makeReplayDataset(
        kContentPerClass, splitmix64(config_.seed ^ 0xda7a));
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        if (items[c].empty())
            continue;
        const QosClassConfig &q = config_.qos[c];
        stream::VisionConfig vc;
        vc.depth = q.depth;
        vc.convSnrDb = q.convSnrDb;
        vc.adcBits = q.adcBits;
        vc.hostBatch = std::max<std::size_t>(1, config_.contentBatch);
        const std::vector<std::int32_t> predicted = stream::classifyFrames(
            vc, dataset, keys[c], config_.contentThreads);
        for (std::size_t i = 0; i < items[c].size(); ++i)
            items[c][i].session->predictions[items[c][i].frame] =
                predicted[i];
    }
}

FleetReport
FleetEngine::buildReport() const
{
    FleetReport r;
    r.makespanS =
        lastCompletionS_ > 0.0 ? lastCompletionS_ : lastEventS_;

    struct ClassAccum {
        std::size_t sessions = 0;
        double energySumJ = 0.0;
        std::uint64_t energyCount = 0;
        std::vector<double> shares;
    };
    std::array<ClassAccum, kTrafficClasses> accum;
    std::array<ClassReport, kTrafficClasses> classes;

    db_.forEach([&](const Session &s) {
        const std::size_t c = classIndex(s.cls);
        ClassReport &cr = classes[c];
        ClassAccum &ca = accum[c];
        ++cr.sessions;
        cr += s.stats;
        ca.energySumJ += s.stats.systemJ.mean() *
                         static_cast<double>(s.stats.systemJ.count());
        ca.energyCount += s.stats.systemJ.count();
        ca.shares.push_back(
            static_cast<double>(s.stats.completed));
    });

    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        ClassReport &cr = classes[c];
        cr.cls = static_cast<TrafficClass>(c);
        cr.sloS = models_[c].sloS;
        cr.latencyS = latencyHist_[c];
        if (r.makespanS > 0.0)
            cr.fps = static_cast<double>(cr.completed) /
                     r.makespanS;
        // percentileOr: a class can complete zero frames under total
        // shed, which leaves its latency histogram empty — report
        // zeros instead of fataling (exporters render them as empty
        // cells).
        cr.p50S = cr.latencyS.percentileOr(50.0);
        cr.p95S = cr.latencyS.percentileOr(95.0);
        cr.p99S = cr.latencyS.percentileOr(99.0);
        cr.meanLatencyS = cr.latencyS.mean();
        cr.sloAttainment =
            cr.completed
                ? 1.0 - static_cast<double>(cr.sloViolations) /
                            static_cast<double>(cr.completed)
                : 1.0;
        cr.meanSystemJ = accum[c].energyCount
                             ? accum[c].energySumJ /
                                   static_cast<double>(
                                       accum[c].energyCount)
                             : 0.0;
        cr.fairness = jainIndex(accum[c].shares);

        r += cr;
        r.classes[c] = std::move(cr);
    }

    if (r.makespanS > 0.0)
        r.aggregateFps =
            static_cast<double>(r.completed) / r.makespanS;
    r.deviceUtilization = pool_.deviceUtilization(r.makespanS);
    r.hostUtilization = pool_.hostUtilization(r.makespanS);
    r.programCacheHits = programCache_->hits();
    r.programCacheMisses = programCache_->misses();
    r.planCacheHits = pool_.planCache()->hits();
    r.planCacheMisses = pool_.planCache()->misses();
    r.devicesNormal = pool_.healthCount(stream::DegradeMode::Normal);
    r.devicesRemap = pool_.healthCount(stream::DegradeMode::Remap);
    r.devicesBypass = pool_.healthCount(stream::DegradeMode::Bypass);
    r.expiredSessions = expiredSessions_;

    r.devicesActive =
        pool_.lifecycleCount(DeviceLifecycle::Active);
    r.devicesQuarantined =
        pool_.lifecycleCount(DeviceLifecycle::Quarantined);
    r.devicesRetired =
        pool_.lifecycleCount(DeviceLifecycle::Retired);
    r.quarantines = pool_.totalQuarantines();
    r.recoveries = pool_.totalRecoveries();
    r.hedgeSkipped = hedgeSkipped_;
    r.attemptTimeouts = attemptTimeouts_;
    r.probeSweeps = probeSweeps_;
    r.chaosKills = chaosKills_;
    r.chaosRecovers = chaosRecovers_;
    r.brownoutEscalations = brownoutEscalations_;
    r.finalBrownoutLevel = brownoutLevel_;
    r.tuneSteps = tuneSteps_;
    r.retunes = retunes_;
    r.opModelCount = opModels_ ? opModels_->size() : 0;
    r.eventLoopAllocs = eventLoopAllocs_;
    r.controlPlaneAllocs = controlPlaneAllocs_;
    r.windows.assign(windows_.begin(),
                     windows_.begin() +
                         static_cast<std::ptrdiff_t>(
                             windowHighWater_));
    return r;
}

FleetReport
FleetEngine::run()
{
    // Pre-size everything the data plane touches: the event heap,
    // the request-record pool and the reporting windows. After this
    // block the steady-state loop performs no heap allocation — the
    // PR-6 guarantee extended to retries and hedging; only the
    // control plane (probes, reprobes, chaos) allocates, and its
    // share is metered.
    events_.reserve(config_.sessions + 8 * pool_.devices() +
                    pool_.hosts() + config_.chaos.size() +
                    4 * config_.queueCapacity + 64);
    records_.resize(pool_.devices() + 2);
    for (std::size_t i = 0; i < records_.size(); ++i)
        records_[i].freeNext =
            i + 1 < records_.size() ? static_cast<int>(i + 1) : -1;
    recordFreeHead_ = 0;
    if (config_.windowS > 0.0) {
        const double horizon =
            static_cast<double>(config_.framesPerSession) /
            config_.sessionRateHz;
        // Clamped before the cast: a span tiny against the horizon
        // would otherwise cast a count past any integer.
        const auto count = static_cast<std::size_t>(std::min(
            std::ceil(8.0 * std::max(horizon / config_.windowS, 1.0)) +
                8.0,
            65536.0));
        windows_.resize(count);
        for (std::size_t i = 0; i < windows_.size(); ++i) {
            windows_[i].startS =
                static_cast<double>(i) * config_.windowS;
            windows_[i].endS =
                static_cast<double>(i + 1) * config_.windowS;
            windows_[i].activeDevicesMin = pool_.devices();
        }
    }

    admitSessions();

    const std::uint64_t loop_alloc0 = alloc::allocations();
    Event event;
    while (popEvent(event)) {
        lastEventS_ = event.timeS;
        switch (event.kind) {
          case Event::Kind::Arrival:
            onArrival(event);
            break;
          case Event::Kind::DeviceDone:
            onDeviceDone(event);
            break;
          case Event::Kind::HostDone:
            onHostDone(event);
            break;
          case Event::Kind::ProbeSweep:
            onProbeSweep(event);
            break;
          case Event::Kind::Reprobe:
            onReprobe(event);
            break;
          case Event::Kind::Retry:
            onRetry(event);
            break;
          case Event::Kind::HedgeFire:
            onHedgeFire(event);
            break;
          case Event::Kind::AttemptTimeout:
            onAttemptTimeout(event);
            break;
          case Event::Kind::Chaos:
            onChaos(event);
            break;
          case Event::Kind::TuneStep:
            onTuneStep(event);
            break;
        }
    }
    eventLoopAllocs_ = alloc::allocations() - loop_alloc0;

    flushQueues(lastEventS_);

    runContentPass();

    FleetReport report = buildReport();
    if (config_.sessionIdleExpireS > 0.0) {
        expiredSessions_ = db_.expireIdle(config_.sessionIdleExpireS,
                                          lastEventS_);
        report.expiredSessions = expiredSessions_;
    }
    return report;
}

} // namespace fleet
} // namespace redeye
