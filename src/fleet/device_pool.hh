/**
 * @file
 * DevicePool: the shared analog/digital serving capacity of a fleet,
 * and the owner of every device's health lifecycle.
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
 * Health lifecycle (fault-tolerance layer, DESIGN.md §13): each
 * device is Active, Quarantined, or Retired, and only Active devices
 * are leasable. The pool holds the whole policy — the probe-score
 * EWMA, the quarantine, error and retire thresholds, the reprobe
 * backoff, the failure model and the re-plan through the plan cache
 * (named constants in device_pool.cc). Its caller decides only
 * *when*: it runs sweep() on its probe cadence, reports serve errors,
 * and calls reprobe() once reprobeDelayS() has elapsed. Quarantine
 * never interrupts a lease — the current lease drains and release
 * simply does not return the slot to the idle set.
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
#include "stream/probe.hh"

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

    /** Degradation policy applied per device (the pool always
     * plans, so its `enabled` switch is ignored). */
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
     * pool probes against it with the device's served-frame clock
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

    std::uint64_t framesServed = 0;
    double busyS = 0.0;   ///< accumulated service time
    double energyJ = 0.0; ///< accumulated analog energy
};

/** Host (digital tail) worker slot. */
struct HostSlot {
    std::size_t id = 0;
    bool busy = false;
    std::uint64_t framesServed = 0;
    double busyS = 0.0;
};

/** What a quarantined device's reprobe decided. */
enum class ReprobeOutcome : std::uint8_t {
    Retired,    ///< past saving: permanently out of service
    Waiting,    ///< health still recovering: reprobe again later
    Readmitted, ///< Active again under a plan around its suspects
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
     * Lease the healthiest idle Active device, skipping @p exclude (a
     * device a previous attempt failed on; -1 = none). Returns the
     * device index, or -1 when none qualifies.
     */
    int leaseDevice(int exclude = -1);

    /** Return device @p index, accounting its service. A device
     * quarantined or retired mid-lease drains here: it is not
     * returned to the idle set. */
    void releaseDevice(std::size_t index, double busy_s,
                       double energy_j);

    /** Lease an idle host worker (lowest index), or -1. */
    int leaseHost();

    /** Return host worker @p index, accounting its service. */
    void releaseHost(std::size_t index, double busy_s);

    std::size_t devices() const { return devices_.size(); }
    std::size_t hosts() const { return hosts_.size(); }

    const DeviceSlot &device(std::size_t i) const;
    const HostSlot &host(std::size_t i) const;

    /** The pool's configuration. */
    const DevicePoolConfig &config() const { return config_; }

    // ---- Health lifecycle ----

    /**
     * Probe device @p index against its realized faults at its
     * served-frame clock and fold the score into its health EWMA.
     * Quarantines the device when the probe finds suspects its plan
     * does not cover and the EWMA fell below the quarantine bar;
     * re-plans a degraded device that probes clean with no serve
     * errors since its last plan back to health. Devices that are not
     * Active are skipped. Returns true when the sweep quarantined the
     * device.
     */
    bool sweep(std::size_t index);

    /**
     * Count one serving error against device @p index. The error that
     * reaches the threshold since the last (re)plan quarantines an
     * Active device without waiting for a sweep; returns true when
     * this error did.
     */
    bool recordServeError(std::size_t index);

    /**
     * Recheck quarantined device @p index: retire it when its probe
     * is (nearly) all suspects or its reprobes ran out; readmit it
     * Active under a plan around everything the probe sees once its
     * health EWMA recovers past the quarantine bar; otherwise leave
     * it Waiting for reprobeDelayS().
     */
    ReprobeOutcome reprobe(std::size_t index);

    /** Delay until device @p index's next reprobe: exponential
     * backoff over the reprobes of its current quarantine. */
    double reprobeDelayS(std::size_t index) const;

    /**
     * Probability that an attempt on device @p index fails: grows
     * with the share of its live dead columns that its plan does not
     * route around, and is 0 when the plan covers them all.
     */
    double failureProbability(std::size_t index) const;

    /**
     * Mean dead-column exposure (plan-covered plus undetected) over
     * the Active devices: the fault context a tuner folds into its
     * mode choice. A pool with nothing Active reads as fully suspect.
     */
    double suspectFraction() const;

    /**
     * Healthy serving capacity in frames/s: each Active device
     * serves at 1/@p device_s, stretched by its dead share when
     * Remapped; a Bypass device only routes, so it counts at the
     * full-network host rate 1/@p host_full_s.
     */
    double capacityFps(double device_s, double host_full_s) const;

    /** Devices currently Active. */
    std::size_t activeDevices() const { return activeDevices_; }

    /** Swap the device's fault campaign (chaos kill/recover). Does
     * not touch the serving plan — detection is the runtime's job. */
    void setDeviceFaults(
        std::size_t index,
        std::shared_ptr<const fault::FaultModel> faults);

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
    DeviceSlot &at(std::size_t index); ///< bounds-checked

    /** Probe device @p index at its served-frame clock. */
    stream::ProbeReport probe(std::size_t index) const;

    /** Plan device @p index around @p probe through the plan cache,
     * keyed by @p epoch, and serve it under that plan. */
    void plan(std::size_t index, std::uint64_t epoch,
              const stream::ProbeReport &probe);

    /** Re-plan device @p index around @p probe at a fresh epoch and
     * (re-)admit it Active at the probe's suspect severity. */
    void replan(std::size_t index, const stream::ProbeReport &probe);

    /** Active -> Quarantined: stop leasing, halve the health EWMA. */
    void quarantine(std::size_t index);

    DevicePoolConfig config_;
    std::vector<DeviceSlot> devices_;
    std::vector<HostSlot> hosts_;
    std::size_t idleDevices_ = 0; ///< Active and not busy
    std::size_t idleHosts_ = 0;
    std::size_t activeDevices_ = 0;
    std::shared_ptr<stream::DegradePlanCache> planCache_;
};

} // namespace fleet
} // namespace redeye

#endif // REDEYE_FLEET_DEVICE_POOL_HH
