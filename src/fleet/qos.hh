/**
 * @file
 * QoS traffic classes for multi-tenant fleet serving.
 *
 * Every session carries one of three traffic classes; the class
 * decides three things about how the shared device pool treats the
 * session's frames:
 *
 *  - **Admission share** of the bounded queues (reserved floor, cap,
 *    and eviction priority — see core/classed_queue.hh): under
 *    oversubscription BEST_EFFORT is shed first, INTERACTIVE last.
 *  - **Service weight** in the weighted-fair dispatch to devices.
 *  - **Operating point** — the RedEye fidelity knobs (analog depth,
 *    noise admission SNR, ADC resolution) the session's program is
 *    compiled at. This is the paper's §VII situational scaling bent
 *    fleet-wise: background classes accept lower analog fidelity for
 *    lower energy, and the distinct operating points key distinct
 *    entries in the shared content-addressed ProgramCache.
 *
 * Each class also carries a latency SLO, derived as sloMultiplier
 * times the class's unloaded device + host service time; the fleet
 * report scores per-class attainment against it. The fault-tolerance
 * layer's deadline and per-attempt timeout are fixed multiples of
 * the SLO and of the device service time (engine.cc,
 * kDeadlineMultiplier and kAttemptTimeoutMultiplier).
 */

#ifndef REDEYE_FLEET_QOS_HH
#define REDEYE_FLEET_QOS_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace redeye {
namespace fleet {

/** Traffic classes, highest priority first. */
enum class TrafficClass : std::uint8_t {
    Interactive = 0, ///< user-facing, tight latency SLO
    Background = 1,  ///< deferred work, loose SLO
    BestEffort = 2,  ///< scavenger traffic, shed first
};

/** Number of traffic classes. */
inline constexpr std::size_t kTrafficClasses = 3;

/** Name of a traffic class. */
const char *trafficClassName(TrafficClass cls);

/** Class index as a size_t (queue/class-table subscript). */
inline constexpr std::size_t
classIndex(TrafficClass cls)
{
    return static_cast<std::size_t>(cls);
}

/** Per-class serving parameters. */
struct QosClassConfig {
    /** Weighted-fair service weight (>= 1). */
    unsigned weight = 1;

    /** Fraction of the queue bound this class keeps under eviction. */
    double reservedShare = 0.0;

    /** Fraction of the queue bound this class may occupy at most. */
    double maxShare = 1.0;

    /** Latency SLO as a multiple of the unloaded device + host
     * service time. */
    double sloMultiplier = 4.0;

    // RedEye operating point served to this class (§VII situational
    // scaling: fidelity traded for energy per class).
    unsigned depth = 1;      ///< analog prefix depth cut
    double convSnrDb = 40.0; ///< programmed noise admission
    unsigned adcBits = 4;    ///< readout resolution

    // Fault-tolerance parameters (DESIGN.md §13). Only consulted
    // when FleetConfig::ft.enabled is set; with the fault-tolerance
    // layer off these fields are inert.

    /** Total attempts per request (first try + retries). */
    unsigned maxAttempts = 3;

    /** Retry-budget credit per admitted frame (core/retry.hh): the
     * sustained retry fraction this class may inject. */
    double retryBudgetRatio = 0.1;

    /** Hedge slow requests with one duplicate dispatch (first-wins).
     * Default-on only for INTERACTIVE in defaultQosTable(). */
    bool hedge = false;
};

/** Table of per-class parameters, indexed by classIndex(). */
using QosTable = std::array<QosClassConfig, kTrafficClasses>;

/**
 * Default class table: INTERACTIVE gets most of the service weight
 * but the shallowest queue share (a short queue is what bounds its
 * latency) and full fidelity; BACKGROUND a deeper share at reduced
 * SNR; BEST_EFFORT the scraps at the cheapest operating point, with
 * no reservation (always evictable).
 */
QosTable defaultQosTable();

} // namespace fleet
} // namespace redeye

#endif // REDEYE_FLEET_QOS_HH
