#include "fleet/device_pool.hh"

#include <algorithm>

#include "core/logging.hh"
#include "core/rng.hh"
#include "stream/probe.hh"

namespace redeye {
namespace fleet {

namespace {

/** Pass salts separating the pool's fault draws. */
constexpr std::uint64_t kHealthPass = 0xf1ee7;

/** Base seed of the per-device fault draws. */
constexpr std::uint64_t kFaultSeed = 0xdefa17;

/** Dead-column rate of a device drawn bricked. */
constexpr double kBrickedDeadColumns = 0.9;

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
    : planCache_(plan_cache
                     ? std::move(plan_cache)
                     : std::make_shared<stream::DegradePlanCache>())
{
    fatal_if(config.devices == 0, "device pool needs devices");
    fatal_if(config.hostWorkers == 0, "device pool needs hosts");

    devices_.resize(config.devices);
    hosts_.resize(config.hostWorkers);

    stream::DegradationPolicyConfig policy = config.degrade;
    policy.enabled = true;

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

        // Realize the campaign once and keep it on the slot: the
        // engine reprobes against it with the device's own frame
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
        const std::uint64_t key =
            stream::degradePlanKey(i, config.array, policy);
        slot.plan = planCache_->fetch(key, [&]() {
            return stream::planDegradation(
                stream::runCalibrationProbe(config.array,
                                            slot.faults.get(),
                                            probe_frame),
                config.array, policy);
        });
        slot.health = slot.plan.mode;
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
    idleHosts_ = hosts_.size();
}

int
DevicePool::leaseDevice(std::uint64_t session, int exclude)
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
    devices_[best].leasedTo = session;
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
    slot.leasedTo = 0;
    ++slot.framesServed;
    slot.busyS += busy_s;
    slot.energyJ += energy_j;
    // A device quarantined or retired mid-lease drains here: only
    // Active slots rejoin the idle set.
    if (slot.lifecycle == DeviceLifecycle::Active)
        ++idleDevices_;
}

int
DevicePool::leaseHost(std::uint64_t session)
{
    if (idleHosts_ == 0)
        return -1;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
        if (!hosts_[i].busy) {
            hosts_[i].busy = true;
            hosts_[i].leasedTo = session;
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
    slot.leasedTo = 0;
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

void
DevicePool::quarantineDevice(std::size_t index)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    DeviceSlot &slot = devices_[index];
    fatal_if(slot.lifecycle != DeviceLifecycle::Active,
             "quarantining a non-active device");
    if (!slot.busy)
        --idleDevices_;
    slot.lifecycle = DeviceLifecycle::Quarantined;
    slot.serveErrors = 0;
    slot.reprobeAttempts = 0;
    ++slot.quarantines;
}

void
DevicePool::retireDevice(std::size_t index)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    DeviceSlot &slot = devices_[index];
    fatal_if(slot.lifecycle == DeviceLifecycle::Retired,
             "retiring a retired device");
    if (slot.lifecycle == DeviceLifecycle::Active && !slot.busy)
        --idleDevices_;
    slot.lifecycle = DeviceLifecycle::Retired;
}

void
DevicePool::reactivateDevice(std::size_t index,
                             const stream::DegradePlan &plan,
                             double dead_fraction)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    DeviceSlot &slot = devices_[index];
    fatal_if(slot.lifecycle == DeviceLifecycle::Retired,
             "reactivating a retired device");
    if (slot.lifecycle == DeviceLifecycle::Quarantined)
        ++slot.recoveries;
    const bool was_idle_active =
        slot.lifecycle == DeviceLifecycle::Active && !slot.busy;
    slot.lifecycle = DeviceLifecycle::Active;
    slot.plan = plan;
    slot.health = plan.mode;
    // Clamp: a fully-dead array would make the remap stretch factor
    // 1/(1-f) explode; such arrays plan Bypass anyway.
    slot.deadColumnFraction = std::min(dead_fraction, 0.95);
    slot.serveErrors = 0;
    slot.healthEwma = 1.0;
    ++slot.planGeneration;
    if (!slot.busy && !was_idle_active)
        ++idleDevices_;
}

void
DevicePool::setDeviceFaults(
    std::size_t index,
    std::shared_ptr<const fault::FaultModel> faults)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    devices_[index].faults = std::move(faults);
}

std::uint64_t
DevicePool::recordServeError(std::size_t index)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    DeviceSlot &slot = devices_[index];
    ++slot.errorsTotal;
    return ++slot.serveErrors;
}

void
DevicePool::setHealthScore(std::size_t index, double ewma)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    devices_[index].healthEwma = ewma;
}

std::uint64_t
DevicePool::bumpReprobeAttempt(std::size_t index)
{
    fatal_if(index >= devices_.size(), "device index out of range");
    return ++devices_[index].reprobeAttempts;
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
