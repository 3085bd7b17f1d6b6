/**
 * @file
 * DevicePool: the shared analog/digital serving capacity of a fleet.
 *
 * The pool owns N simulated RedEye devices and M host (digital tail)
 * workers. Each device carries its own silicon health: at pool
 * construction a deterministic, seeded fault draw assigns some
 * devices a dead-column campaign, each of which is then probed
 * (stream/probe.hh) and planned (stream/degrade.hh) through the
 * fleet-shared DegradePlanCache — exactly the calibration path the
 * single-stream runtime uses, with the device index standing in for
 * the probe epoch so distinct devices key distinct cache entries.
 *
 * The resulting per-device DegradePlan shapes service: a Normal
 * device serves the compiled program as-is, a Remap device pays the
 * column-sharing slowdown plus the ADC-boost operating point, and a
 * Bypass device is past saving — it only routes frames, pushing the
 * whole network onto the host tier.
 *
 * Lifecycle (fault-tolerance layer, DESIGN.md §13): each device is
 * Active, Quarantined, or Retired. Only Active devices are leasable.
 * Quarantine never interrupts a lease — the current lease drains and
 * release simply does not return the slot to the idle set. The
 * FleetEngine drives transitions (probe sweeps, error thresholds,
 * reprobe backoff); the pool enforces the leasing invariants.
 *
 * Leasing: the scheduler leases one device (or host worker) per
 * frame and releases it at completion. Leases prefer the healthiest
 * idle device (Normal > Remap > Bypass, lowest index within a tier),
 * which keeps the choice deterministic. A caller retrying a failed
 * attempt can exclude the device that failed it. The busy/served/
 * energy accounting per slot feeds the fleet utilization report.
 *
 * Externally synchronized, like SessionDb: the deterministic fleet
 * engine is the only mutator.
 */

#ifndef REDEYE_FLEET_DEVICE_POOL_HH
#define REDEYE_FLEET_DEVICE_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_model.hh"
#include "redeye/column.hh"
#include "stream/degrade.hh"

namespace redeye {
namespace fleet {

/** Pool sizing and per-device fault statistics. */
struct DevicePoolConfig {
    std::size_t devices = 8;     ///< simulated RedEye devices
    std::size_t hostWorkers = 8; ///< digital tail servers

    /**
     * Fraction of devices drawn with a moderate dead-column campaign
     * (degradation policy answer: Remap + ADC boost).
     */
    double faultyFraction = 0.0;
    double faultyDeadColumns = 0.25; ///< dead rate of a faulty device

    /**
     * Fraction drawn with catastrophic damage (policy answer:
     * Bypass; dead rate fixed in device_pool.cc). Drawn after
     * faultyFraction from the same stream, so the two populations
     * are disjoint.
     */
    double brickedFraction = 0.0;

    /**
     * When nonzero, drawn fault campaigns onset at a per-column
     * frame drawn uniformly in [0, onsetHorizonFrames] of the
     * device's own served-frame clock instead of being present from
     * birth: the construction-time probe sees a (still) healthy
     * array, the device starts serving Normal, and the faults fire
     * *during* the run for the live-health machinery to catch.
     * 0 preserves the static draw-at-birth behavior bit-for-bit.
     */
    std::uint64_t onsetHorizonFrames = 0;

    /** Array the devices instantiate (probe target). */
    arch::ColumnArrayConfig array;

    /** Degradation policy applied per device. */
    stream::DegradationPolicyConfig degrade;
};

/** Where a device is in its serving lifecycle. */
enum class DeviceLifecycle : std::uint8_t {
    Active,      ///< leasable (health permitting)
    Quarantined, ///< leases drain, reprobe pending
    Retired,     ///< permanently out of service
};

/** Name of a lifecycle state. */
const char *deviceLifecycleName(DeviceLifecycle lc);

/** One simulated device slot. */
struct DeviceSlot {
    std::size_t id = 0;
    stream::DegradeMode health = stream::DegradeMode::Normal;
    double deadColumnFraction = 0.0; ///< realized fault severity
    stream::DegradePlan plan;        ///< probe-derived serving plan

    /**
     * The device's realized fault campaign (null = pristine). The
     * engine probes against it with the device's served-frame clock
     * so onset-horizon faults fire mid-run; chaos schedules swap it.
     */
    std::shared_ptr<const fault::FaultModel> faults;

    DeviceLifecycle lifecycle = DeviceLifecycle::Active;
    double healthEwma = 1.0;        ///< probe-sweep EWMA score
    std::uint64_t serveErrors = 0;  ///< errors since last (re)plan
    std::uint64_t errorsTotal = 0;
    std::uint64_t reprobeAttempts = 0; ///< reprobes this quarantine
    std::uint64_t planGeneration = 0;  ///< re-plans (cache key salt)
    std::uint64_t quarantines = 0;
    std::uint64_t recoveries = 0;

    bool busy = false;
    std::uint64_t leasedTo = 0; ///< session id of the current lease

    std::uint64_t framesServed = 0;
    double busyS = 0.0;   ///< accumulated service time
    double energyJ = 0.0; ///< accumulated analog energy
};

/** Host (digital tail) worker slot. */
struct HostSlot {
    std::size_t id = 0;
    bool busy = false;
    std::uint64_t leasedTo = 0;
    std::uint64_t framesServed = 0;
    double busyS = 0.0;
};

/** Shared pool of simulated devices and host workers. */
class DevicePool
{
  public:
    /**
     * Build the pool: draw per-device faults, probe and plan each
     * device through @p plan_cache (created when null).
     */
    explicit DevicePool(
        const DevicePoolConfig &config,
        std::shared_ptr<stream::DegradePlanCache> plan_cache = nullptr);

    /** True when some Active device is idle. */
    bool hasIdleDevice() const { return idleDevices_ > 0; }

    /** True when some host worker is idle. */
    bool hasIdleHost() const { return idleHosts_ > 0; }

    /**
     * Lease the healthiest idle Active device to @p session, skipping
     * @p exclude (a device a previous attempt failed on; -1 = none).
     * Returns the device index, or -1 when none qualifies.
     */
    int leaseDevice(std::uint64_t session, int exclude = -1);

    /** Return device @p index, accounting its service. A device
     * quarantined or retired mid-lease drains here: it is not
     * returned to the idle set. */
    void releaseDevice(std::size_t index, double busy_s,
                       double energy_j);

    /** Lease an idle host worker (lowest index), or -1. */
    int leaseHost(std::uint64_t session);

    /** Return host worker @p index, accounting its service. */
    void releaseHost(std::size_t index, double busy_s);

    std::size_t devices() const { return devices_.size(); }
    std::size_t hosts() const { return hosts_.size(); }

    const DeviceSlot &device(std::size_t i) const;
    const HostSlot &host(std::size_t i) const;

    // ---- Lifecycle transitions (engine-driven) ----

    /** Active -> Quarantined: stop leasing; the current lease (if
     * any) drains. Resets the serve-error and reprobe counters. */
    void quarantineDevice(std::size_t index);

    /** Quarantined (or Active) -> Retired, permanently. */
    void retireDevice(std::size_t index);

    /**
     * (Re-)admit device @p index as Active under @p plan with
     * realized severity @p dead_fraction — the reprobe path back
     * from quarantine, and the in-place upgrade path when a sweep
     * finds a recovered device. Counts a recovery only when leaving
     * quarantine.
     */
    void reactivateDevice(std::size_t index,
                          const stream::DegradePlan &plan,
                          double dead_fraction);

    /** Swap the device's fault campaign (chaos kill/recover). Does
     * not touch the serving plan — detection is the runtime's job. */
    void setDeviceFaults(
        std::size_t index,
        std::shared_ptr<const fault::FaultModel> faults);

    /** Count one serving error against the device; returns the
     * errors accumulated since the last (re)plan. */
    std::uint64_t recordServeError(std::size_t index);

    /** Update the probe-sweep EWMA health score. */
    void setHealthScore(std::size_t index, double ewma);

    /** Bump and return the quarantine reprobe attempt counter. */
    std::uint64_t bumpReprobeAttempt(std::size_t index);

    /** Devices currently in a given health state. */
    std::size_t healthCount(stream::DegradeMode mode) const;

    /** Devices currently in a given lifecycle state. */
    std::size_t lifecycleCount(DeviceLifecycle lc) const;

    /** Sum of per-device quarantine entries over the pool's life. */
    std::uint64_t totalQuarantines() const;

    /** Sum of per-device recoveries (re-admissions) ditto. */
    std::uint64_t totalRecoveries() const;

    /** Mean busy fraction across devices over @p wall_s. */
    double deviceUtilization(double wall_s) const;

    /** Mean busy fraction across host workers over @p wall_s. */
    double hostUtilization(double wall_s) const;

    /** The shared plan cache devices were planned through. */
    const std::shared_ptr<stream::DegradePlanCache> &
    planCache() const
    {
        return planCache_;
    }

  private:
    std::vector<DeviceSlot> devices_;
    std::vector<HostSlot> hosts_;
    std::size_t idleDevices_ = 0; ///< Active and not busy
    std::size_t idleHosts_ = 0;
    std::shared_ptr<stream::DegradePlanCache> planCache_;
};

} // namespace fleet
} // namespace redeye

#endif // REDEYE_FLEET_DEVICE_POOL_HH
