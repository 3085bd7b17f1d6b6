#include "fleet/device_pool.hh"

#include <algorithm>

#include "core/logging.hh"
#include "core/retry.hh"
#include "core/rng.hh"

namespace redeye {
namespace fleet {

namespace {

/** Pass salts separating the pool's fault draws. */
constexpr std::uint64_t kHealthPass = 0xf1ee7;

/** Base seed of the per-device fault draws. */
constexpr std::uint64_t kFaultSeed = 0xdefa17;

/** Dead-column rate of a device drawn bricked. */
constexpr double kBrickedDeadColumns = 0.9;

// Health policy of the fault-tolerance layer (DESIGN.md §13).

/** EWMA weight of the newest probe score. */
constexpr double kHealthAlpha = 0.5;

/** Quarantine a device whose probe found uncovered suspects and
 * whose EWMA health dropped below this; a reprobed device is
 * re-admitted once its EWMA climbs back to it. */
constexpr double kQuarantineEwma = 0.9;

/** Serving errors since the last (re)plan that force quarantine
 * without waiting for a sweep. */
constexpr std::uint64_t kErrorThreshold = 3;

/** An attempt on a device with undetected dead-column fraction u
 * fails with probability min(1, kFailureSensitivity * u). */
constexpr double kFailureSensitivity = 1.0;

/** Reprobe schedule of a quarantined device. Zero jitter makes the
 * delay ignore its uniform draw, so reprobes pass 0 for it. */
constexpr BackoffConfig kReprobeBackoff{0.05, 2.0, 1.0, 0.0};

/** Reprobes before a quarantined device is retired. */
constexpr std::uint64_t kMaxReprobes = 8;

/** Probe suspect fraction at or above which a reprobed device is
 * retired outright instead of re-admitted. */
constexpr double kRetireSuspectFraction = 0.97;

/** Rank for the healthiest-first lease scan. */
int
healthRank(stream::DegradeMode mode)
{
    switch (mode) {
      case stream::DegradeMode::Normal:
        return 0;
      case stream::DegradeMode::Remap:
        return 1;
      case stream::DegradeMode::Bypass:
        return 2;
    }
    return 3;
}

/** Share of an array's @p columns a calibration probe flagged. */
double
suspectShare(const stream::ProbeReport &report, std::size_t columns)
{
    return static_cast<double>(report.suspectColumns.size()) /
           static_cast<double>(columns);
}

/**
 * How much of the device's *currently active* fault set the serving
 * plan does not route around. The plan's suspect list is what the
 * last probe saw; columns whose onset fired since then are invisible
 * to it and corrupt frames. Suspect identity is counted, not matched
 * per column — adequate for a failure-probability model.
 */
double
undetectedDeadFraction(const DeviceSlot &slot)
{
    if (!slot.faults)
        return 0.0;
    const std::size_t active =
        slot.faults->deadColumnCount(slot.framesServed);
    const std::size_t covered = slot.plan.suspectColumns.size();
    if (active <= covered)
        return 0.0;
    return static_cast<double>(active - covered) /
           static_cast<double>(slot.faults->columns());
}

} // namespace

const char *
deviceLifecycleName(DeviceLifecycle lc)
{
    switch (lc) {
      case DeviceLifecycle::Active:
        return "active";
      case DeviceLifecycle::Quarantined:
        return "quarantined";
      case DeviceLifecycle::Retired:
        return "retired";
    }
    return "?";
}

DevicePool::DevicePool(
    const DevicePoolConfig &config,
    std::shared_ptr<stream::DegradePlanCache> plan_cache)
    : config_(config),
      planCache_(plan_cache
                     ? std::move(plan_cache)
                     : std::make_shared<stream::DegradePlanCache>())
{
    fatal_if(config.devices == 0, "device pool needs devices");
    fatal_if(config.hostWorkers == 0, "device pool needs hosts");

    devices_.resize(config.devices);
    hosts_.resize(config.hostWorkers);

    for (std::size_t i = 0; i < devices_.size(); ++i) {
        DeviceSlot &slot = devices_[i];
        slot.id = i;

        // One uniform draw per device decides its health band;
        // counter-based so the draw for device i is independent of
        // the pool size and of every other device.
        const double u =
            streamRng(kFaultSeed, kHealthPass, i).uniform();
        double dead = 0.0;
        if (u < config.brickedFraction)
            dead = kBrickedDeadColumns;
        else if (u < config.brickedFraction + config.faultyFraction)
            dead = config.faultyDeadColumns;
        slot.deadColumnFraction = dead;

        // Realize the campaign once and keep it on the slot: sweeps
        // and reprobes probe against it with the device's own frame
        // clock as the faults onset and drift.
        if (dead > 0.0) {
            fault::FaultCampaign campaign =
                fault::FaultCampaign::deadColumns(
                    dead, splitmix64(kFaultSeed ^ (i + 1)));
            campaign.onsetHorizon = config.onsetHorizonFrames;
            slot.faults = std::make_shared<const fault::FaultModel>(
                campaign, config.array.columns);
        }

        // Run the single-stream calibration path for this device:
        // probe the (possibly faulty) array, derive the plan, and
        // publish it under the device's own key in the shared cache.
        // The plan key's epoch slot carries the device id — distinct
        // devices are distinct "epochs" of the same array config.
        // With an onset horizon the birth probe runs at frame 0 (the
        // device has served nothing), so dormant faults are — by
        // design — not yet visible; without one the legacy probe
        // frame (the device id) is kept so existing draws and plans
        // reproduce bit-for-bit.
        const std::uint64_t probe_frame =
            config.onsetHorizonFrames > 0 ? 0 : i;
        plan(i, i,
             stream::runCalibrationProbe(config_.array,
                                         slot.faults.get(),
                                         probe_frame));
        if (config.onsetHorizonFrames > 0 &&
            slot.plan.mode == stream::DegradeMode::Normal) {
            // Dormant faults: the device *serves* healthy until the
            // onset fires, so its service model must not stretch.
            slot.deadColumnFraction = 0.0;
        }
    }

    for (std::size_t i = 0; i < hosts_.size(); ++i)
        hosts_[i].id = i;

    idleDevices_ = devices_.size();
    activeDevices_ = devices_.size();
    idleHosts_ = hosts_.size();
}

int
DevicePool::leaseDevice(int exclude)
{
    if (idleDevices_ == 0)
        return -1;
    int best = -1;
    int best_rank = 4;
    for (std::size_t i = 0; i < devices_.size(); ++i) {
        const DeviceSlot &slot = devices_[i];
        if (slot.busy ||
            slot.lifecycle != DeviceLifecycle::Active ||
            static_cast<int>(i) == exclude)
            continue;
        const int rank = healthRank(slot.health);
        if (rank < best_rank) {
            best = static_cast<int>(i);
            best_rank = rank;
            if (rank == 0)
                break; // cannot do better than healthy
        }
    }
    if (best < 0) {
        // Only the excluded device is idle: the caller decides
        // whether to fall back to it or wait.
        fatal_if(exclude < 0, "idle count out of sync with slots");
        return -1;
    }
    devices_[best].busy = true;
    --idleDevices_;
    return best;
}

void
DevicePool::releaseDevice(std::size_t index, double busy_s,
                          double energy_j)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    DeviceSlot &slot = devices_[index];
    fatal_if(!slot.busy, "releasing an idle device");
    slot.busy = false;
    ++slot.framesServed;
    slot.busyS += busy_s;
    slot.energyJ += energy_j;
    // A device quarantined or retired mid-lease drains here: only
    // Active slots rejoin the idle set.
    if (slot.lifecycle == DeviceLifecycle::Active)
        ++idleDevices_;
}

int
DevicePool::leaseHost()
{
    if (idleHosts_ == 0)
        return -1;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        if (!hosts_[i].busy) {
            hosts_[i].busy = true;
            --idleHosts_;
            return static_cast<int>(i);
        }
    }
    fatal("idle count out of sync with slots");
    return -1;
}

void
DevicePool::releaseHost(std::size_t index, double busy_s)
{
    fatal_if(index >= hosts_.size(), "host index out of range");
    HostSlot &slot = hosts_[index];
    fatal_if(!slot.busy, "releasing an idle host");
    slot.busy = false;
    ++slot.framesServed;
    slot.busyS += busy_s;
    ++idleHosts_;
}

const DeviceSlot &
DevicePool::device(std::size_t i) const
{
    fatal_if(i >= devices_.size(), "device index out of range");
    return devices_[i];
}

const HostSlot &
DevicePool::host(std::size_t i) const
{
    fatal_if(i >= hosts_.size(), "host index out of range");
    return hosts_[i];
}

DeviceSlot &
DevicePool::at(std::size_t index)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    return devices_[index];
}

stream::ProbeReport
DevicePool::probe(std::size_t index) const
{
    const DeviceSlot &slot = devices_[index];
    return stream::runCalibrationProbe(config_.array, slot.faults.get(),
                                       slot.framesServed);
}

void
DevicePool::plan(std::size_t index, std::uint64_t epoch,
                 const stream::ProbeReport &probe)
{
    DeviceSlot &slot = devices_[index];
    slot.plan = planCache_->fetch(
        stream::degradePlanKey(epoch, config_.array, config_.degrade),
        [&]() {
            return stream::planDegradation(probe, config_.array,
                                           config_.degrade);
        });
    slot.health = slot.plan.mode;
}

void
DevicePool::replan(std::size_t index, const stream::ProbeReport &probe)
{
    // A fresh plan-cache epoch per re-plan, so a stale plan never
    // resurrects.
    DeviceSlot &slot = devices_[index];
    plan(index, index + devices_.size() * (slot.planGeneration + 1),
         probe);
    ++slot.planGeneration;
    if (slot.lifecycle == DeviceLifecycle::Quarantined) {
        ++slot.recoveries;
        ++activeDevices_;
        if (!slot.busy)
            ++idleDevices_;
    }
    slot.lifecycle = DeviceLifecycle::Active;
    // Clamp: a fully-dead array would make the remap stretch factor
    // 1/(1-f) explode; such arrays plan Bypass anyway.
    slot.deadColumnFraction =
        std::min(suspectShare(probe, config_.array.columns), 0.95);
    slot.serveErrors = 0;
    slot.healthEwma = 1.0;
}

void
DevicePool::quarantine(std::size_t index)
{
    // Entering quarantine costs health: the EWMA must climb back
    // over the re-admission bar through successive clean reprobes,
    // which realizes the backoff ladder (see reprobe()).
    DeviceSlot &slot = devices_[index];
    slot.healthEwma *= 0.5;
    slot.lifecycle = DeviceLifecycle::Quarantined;
    slot.serveErrors = 0;
    slot.reprobeAttempts = 0;
    ++slot.quarantines;
    --activeDevices_;
    if (!slot.busy)
        --idleDevices_;
}

bool
DevicePool::sweep(std::size_t index)
{
    DeviceSlot &slot = at(index);
    if (slot.lifecycle != DeviceLifecycle::Active)
        return false;
    const stream::ProbeReport report = probe(index);

    // Suspects the current plan does not cover (its list ascends).
    const std::vector<std::size_t> &covered = slot.plan.suspectColumns;
    const auto uncovered = static_cast<std::size_t>(std::count_if(
        report.suspectColumns.begin(), report.suspectColumns.end(),
        [&](std::size_t c) {
            return !std::binary_search(covered.begin(), covered.end(),
                                       c);
        }));

    const double score =
        1.0 - static_cast<double>(uncovered) /
                  static_cast<double>(config_.array.columns);
    slot.healthEwma =
        kHealthAlpha * score + (1.0 - kHealthAlpha) * slot.healthEwma;

    if (uncovered > 0 && slot.healthEwma < kQuarantineEwma) {
        quarantine(index);
        return true;
    }
    if (!report.anySuspect() &&
        slot.plan.mode != stream::DegradeMode::Normal &&
        slot.serveErrors == 0) {
        // Clean probe on a degraded plan: the silicon recovered
        // (chaos Recover cleared its faults). Re-plan it healthy.
        replan(index, report);
    }
    return false;
}

bool
DevicePool::recordServeError(std::size_t index)
{
    DeviceSlot &slot = at(index);
    ++slot.errorsTotal;
    if (++slot.serveErrors < kErrorThreshold ||
        slot.lifecycle != DeviceLifecycle::Active)
        return false;
    quarantine(index);
    return true;
}

ReprobeOutcome
DevicePool::reprobe(std::size_t index)
{
    DeviceSlot &slot = at(index);
    fatal_if(slot.lifecycle != DeviceLifecycle::Quarantined,
             "reprobing device ", index, ", which is not quarantined");
    const std::uint64_t attempts = ++slot.reprobeAttempts;
    const stream::ProbeReport report = probe(index);

    // A reprobe plans around everything it currently sees, so the
    // probe-vs-plan score is clean by construction; health recovers
    // geometrically toward 1 and the device is re-admitted once it
    // clears the quarantine bar again. Until then: another reprobe,
    // further out on the backoff schedule.
    if (suspectShare(report, config_.array.columns) >=
            kRetireSuspectFraction ||
        attempts > kMaxReprobes) {
        slot.lifecycle = DeviceLifecycle::Retired;
        return ReprobeOutcome::Retired;
    }
    const double ewma =
        kHealthAlpha * 1.0 + (1.0 - kHealthAlpha) * slot.healthEwma;
    if (ewma < kQuarantineEwma) {
        slot.healthEwma = ewma;
        return ReprobeOutcome::Waiting;
    }
    replan(index, report); // resets health to 1
    return ReprobeOutcome::Readmitted;
}

double
DevicePool::reprobeDelayS(std::size_t index) const
{
    return backoffDelayS(
        kReprobeBackoff,
        static_cast<unsigned>(device(index).reprobeAttempts), 0.0);
}

double
DevicePool::failureProbability(std::size_t index) const
{
    return std::min(1.0, kFailureSensitivity *
                             undetectedDeadFraction(device(index)));
}

double
DevicePool::suspectFraction() const
{
    // Quarantined and retired devices serve no frames, so they don't
    // shape the mode; a pool with nothing Active reads as fully
    // suspect (Bypass).
    double sum = 0.0;
    for (const DeviceSlot &s : devices_) {
        if (s.lifecycle == DeviceLifecycle::Active)
            sum += std::min(1.0, s.deadColumnFraction +
                                     undetectedDeadFraction(s));
    }
    return activeDevices_ ? sum / static_cast<double>(activeDevices_)
                          : 1.0;
}

double
DevicePool::capacityFps(double device_s, double host_full_s) const
{
    double fps = 0.0;
    for (const DeviceSlot &s : devices_) {
        if (s.lifecycle != DeviceLifecycle::Active)
            continue;
        switch (s.health) {
          case stream::DegradeMode::Normal:
            fps += 1.0 / device_s;
            break;
          case stream::DegradeMode::Remap:
            fps += (1.0 - s.deadColumnFraction) / device_s;
            break;
          case stream::DegradeMode::Bypass:
            fps += 1.0 / host_full_s;
            break;
        }
    }
    return fps;
}

void
DevicePool::setDeviceFaults(
    std::size_t index,
    std::shared_ptr<const fault::FaultModel> faults)
{
    at(index).faults = std::move(faults);
}

std::size_t
DevicePool::healthCount(stream::DegradeMode mode) const
{
    return static_cast<std::size_t>(std::count_if(
        devices_.begin(), devices_.end(),
        [mode](const DeviceSlot &s) { return s.health == mode; }));
}

std::size_t
DevicePool::lifecycleCount(DeviceLifecycle lc) const
{
    return static_cast<std::size_t>(std::count_if(
        devices_.begin(), devices_.end(),
        [lc](const DeviceSlot &s) { return s.lifecycle == lc; }));
}

std::uint64_t
DevicePool::totalQuarantines() const
{
    std::uint64_t n = 0;
    for (const DeviceSlot &s : devices_)
        n += s.quarantines;
    return n;
}

std::uint64_t
DevicePool::totalRecoveries() const
{
    std::uint64_t n = 0;
    for (const DeviceSlot &s : devices_)
        n += s.recoveries;
    return n;
}

double
DevicePool::deviceUtilization(double wall_s) const
{
    if (wall_s <= 0.0)
        return 0.0;
    double busy = 0.0;
    for (const DeviceSlot &s : devices_)
        busy += s.busyS;
    return busy / (wall_s * static_cast<double>(devices_.size()));
}

double
DevicePool::hostUtilization(double wall_s) const
{
    if (wall_s <= 0.0)
        return 0.0;
    double busy = 0.0;
    for (const HostSlot &s : hosts_)
        busy += s.busyS;
    return busy / (wall_s * static_cast<double>(hosts_.size()));
}

} // namespace fleet
} // namespace redeye
