/**
 * @file
 * Fleet-level serving reports.
 *
 * Class latency percentiles come from one LogHistogram per class
 * (core/hist.hh), fed at each completion; class and fleet counters
 * sum the ServeCounts of the level below. Nothing here keeps raw
 * samples, so the report cost is independent of frames served.
 *
 * Fairness is Jain's index over per-session completed throughput
 * within a class: 1.0 when every admitted session of the class got
 * the same service, approaching 1/n when one session hogged the
 * pool.
 */

#ifndef REDEYE_FLEET_METRICS_HH
#define REDEYE_FLEET_METRICS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/hist.hh"
#include "fleet/qos.hh"
#include "fleet/session.hh"

namespace redeye {
namespace fleet {

/**
 * Jain's fairness index of @p shares: (sum x)^2 / (n * sum x^2).
 * 1.0 = perfectly even, 1/n = one share has everything. Returns 1.0
 * for empty or all-zero input (nothing to be unfair about).
 */
double jainIndex(const std::vector<double> &shares);

/**
 * One reporting window of a fault-tolerant run (FleetConfig::windowS
 * > 0): per-class terminal counts bucketed by virtual completion
 * time, so SLO attainment can be scored *throughout* a chaos
 * schedule rather than only end-to-end. Windows are pre-sized before
 * the event loop (zero steady-state allocation); events past the cap
 * clamp into the last window.
 */
struct FleetWindow {
    double startS = 0.0;
    double endS = 0.0;
    std::array<std::uint64_t, kTrafficClasses> completed{};
    std::array<std::uint64_t, kTrafficClasses> sloViolations{};
    std::array<std::uint64_t, kTrafficClasses> shed{};
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    std::size_t activeDevicesMin = 0; ///< low-water active devices
    int brownoutLevel = 0;            ///< max level seen in window

    /** SLO attainment of one class within this window (1.0 when the
     * class completed nothing). */
    double
    sloAttainment(std::size_t cls) const
    {
        return completed[cls]
                   ? 1.0 - static_cast<double>(sloViolations[cls]) /
                               static_cast<double>(completed[cls])
                   : 1.0;
    }
};

/** Aggregated serving outcome of one traffic class: the sum of its
 * sessions' ServeCounts plus its latency distribution. */
struct ClassReport : ServeCounts {
    TrafficClass cls = TrafficClass::BestEffort;
    std::size_t sessions = 0; ///< sessions admitted in this class

    double fps = 0.0; ///< completed frames / makespan

    // Percentiles of the class's end-to-end latency.
    double p50S = 0.0;
    double p95S = 0.0;
    double p99S = 0.0;
    double meanLatencyS = 0.0;

    double sloS = 0.0;          ///< the class latency SLO
    double sloAttainment = 1.0; ///< completions within the SLO

    double meanSystemJ = 0.0; ///< per-completed-frame energy

    double fairness = 1.0; ///< Jain over per-session throughput

    /** Latency of every completion in the class (fleet layout). */
    LogHistogram latencyS = makeLatencyHistogram();
};

/** Whole-fleet serving outcome: the ServeCounts are the sum over
 * classes. */
struct FleetReport : ServeCounts {
    double makespanS = 0.0; ///< virtual time of the last completion

    double aggregateFps = 0.0;

    double deviceUtilization = 0.0;
    double hostUtilization = 0.0;

    // Shared content-addressed cache effectiveness.
    std::uint64_t programCacheHits = 0;
    std::uint64_t programCacheMisses = 0;
    std::uint64_t planCacheHits = 0;
    std::uint64_t planCacheMisses = 0;

    /** Sessions swept by idle expiry after the run. */
    std::size_t expiredSessions = 0;

    // Device health census.
    std::size_t devicesNormal = 0;
    std::size_t devicesRemap = 0;
    std::size_t devicesBypass = 0;

    // Device lifecycle census (end of run) and transition totals.
    std::size_t devicesActive = 0;
    std::size_t devicesQuarantined = 0;
    std::size_t devicesRetired = 0;
    std::uint64_t quarantines = 0; ///< quarantine entries over the run
    std::uint64_t recoveries = 0;  ///< re-admissions from quarantine

    // Fault-tolerance layer totals (zero with the layer off).
    std::uint64_t hedgeSkipped = 0; ///< fire with no device to hedge on
    std::uint64_t attemptTimeouts = 0;
    std::uint64_t probeSweeps = 0;
    std::uint64_t chaosKills = 0;
    std::uint64_t chaosRecovers = 0;
    std::uint64_t brownoutEscalations = 0;
    int finalBrownoutLevel = 0;

    // Auto-tune layer totals (zero with the tuner off).
    std::uint64_t tuneSteps = 0; ///< TuneStep events handled
    std::uint64_t retunes = 0;   ///< operating-point switches applied
    std::size_t opModelCount = 0; ///< distinct operating points built

    /**
     * Heap allocations across the event loop, and the control-plane
     * share (probe sweeps, reprobes, chaos handlers — these build
     * ColumnArrays and are inherently allocating). The data plane —
     * admission, dispatch, completion, retry, hedge, brownout — is
     * the difference, and must be zero: steadyAllocations() is the
     * PR-6 guarantee extended to fault-tolerant serving. Both are 0
     * unless the counting allocator is linked (tests/alloc_tests).
     */
    std::uint64_t eventLoopAllocs = 0;
    std::uint64_t controlPlaneAllocs = 0;
    std::uint64_t
    steadyAllocations() const
    {
        return eventLoopAllocs - controlPlaneAllocs;
    }

    /** Reporting windows (empty unless FleetConfig::windowS > 0). */
    std::vector<FleetWindow> windows;

    std::array<ClassReport, kTrafficClasses> classes{};

    /** Human-readable summary table. */
    void print(std::ostream &os) const;
};

} // namespace fleet
} // namespace redeye

#endif // REDEYE_FLEET_METRICS_HH
