/**
 * @file
 * Per-client session state for fleet serving.
 *
 * A Session is everything the fleet must remember about one client
 * between frames: identity, traffic class, arrival process, handles
 * into the shared content-addressed caches, the optional content-pass
 * predictions and tuner, and rolling statistics. Sessions live in
 * the SessionDb (session_db.hh), a dense table indexed by id.
 *
 * A session keeps counters and an energy mean, not latencies: the
 * engine feeds each completion's latency into one LogHistogram per
 * class (core/hist.hh), so memory per session is small and constant
 * no matter how many frames it serves.
 */

#ifndef REDEYE_FLEET_SESSION_HH
#define REDEYE_FLEET_SESSION_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hist.hh"
#include "core/stats.hh"
#include "fleet/qos.hh"
#include "redeye/program.hh"
#include "stream/frame_source.hh"
#include "tune/controller.hh"

namespace redeye {
namespace fleet {

/** Latency histogram layout shared by classes and fleet aggregates
 * (must match for merging): 100 us .. 100 s at ~9% relative
 * resolution. */
inline constexpr double kLatencyHistLoS = 1e-4;
inline constexpr double kLatencyHistHiS = 1e2;
inline constexpr unsigned kLatencyHistPerOctave = 8;

/** A fresh latency histogram with the fleet-wide layout. */
inline LogHistogram
makeLatencyHistogram()
{
    return LogHistogram(kLatencyHistLoS, kLatencyHistHiS,
                        kLatencyHistPerOctave);
}

/**
 * The terminal and attribution counters every serving level keeps:
 * a session's rolling stats, a class report and the fleet report
 * all derive from this, and aggregate by operator+=.
 */
struct ServeCounts {
    std::uint64_t offered = 0;   ///< frames the client emitted
    std::uint64_t admitted = 0;  ///< frames past admission control
    std::uint64_t dropped = 0;   ///< rejected at admission
    std::uint64_t shed = 0;      ///< evicted after admission
    std::uint64_t completed = 0; ///< frames served to completion
    std::uint64_t sloViolations = 0; ///< completions past the SLO

    /**
     * Shed-cause attribution (fault-tolerance layer, DESIGN.md §13):
     * every shed frame counts under exactly one cause, so
     * shedDeadline + shedUnavailable + shedResource + shedBrownout
     * == shed. Queue-full and eviction sheds classify as
     * shedResource (RESOURCE_EXHAUSTED) whether or not the
     * fault-tolerance layer is on — purely additive bookkeeping.
     */
    std::uint64_t shedDeadline = 0;    ///< request deadline expired
    std::uint64_t shedUnavailable = 0; ///< device failures, retries spent
    std::uint64_t shedResource = 0;    ///< queue full/evicted, budget
    std::uint64_t shedBrownout = 0;    ///< brownout controller walk-down

    std::uint64_t retries = 0;   ///< re-dispatches after failure
    std::uint64_t hedges = 0;    ///< duplicate dispatches issued
    std::uint64_t hedgeWins = 0; ///< completions won by the hedge leg
    std::uint64_t degraded = 0;  ///< completions served force-bypassed

    ServeCounts &
    operator+=(const ServeCounts &o)
    {
        offered += o.offered;
        admitted += o.admitted;
        dropped += o.dropped;
        shed += o.shed;
        completed += o.completed;
        sloViolations += o.sloViolations;
        shedDeadline += o.shedDeadline;
        shedUnavailable += o.shedUnavailable;
        shedResource += o.shedResource;
        shedBrownout += o.shedBrownout;
        retries += o.retries;
        hedges += o.hedges;
        hedgeWins += o.hedgeWins;
        degraded += o.degraded;
        return *this;
    }
};

/** Rolling per-session serving statistics. */
struct SessionStats : ServeCounts {
    RunningStat systemJ; ///< per-completed-frame system energy
};

/** One admitted client. */
struct Session {
    std::uint64_t id = 0;          ///< client identity (db key)
    TrafficClass cls = TrafficClass::BestEffort;
    std::uint64_t seed = 0;        ///< base of all per-frame streams

    /** Open-loop arrival process (pure function of frame index). */
    stream::ArrivalSchedule arrivals;

    double lastActiveS = 0.0;      ///< last arrival or completion

    /**
     * Handle on the session's compiled program in the fleet-shared
     * ProgramCache: sessions of one class share one immutable
     * compilation; distinct operating points (per-class fidelity)
     * key distinct entries.
     */
    std::shared_ptr<const arch::Program> program;

    /**
     * Content-pass results, sized to the frame count for the first
     * FleetConfig::contentSessions clients and empty otherwise: the
     * engine marks each completed frame in completedMask, then runs
     * the real vision pipeline over them and records predictions
     * (index = frame number, -1 = not completed). Content is a pure
     * function of (seed, frame index), so it is bit-identical at any
     * content worker count.
     */
    std::vector<std::int32_t> predictions;
    std::vector<std::uint8_t> completedMask;

    /**
     * Online operating-point controller (null unless
     * FleetConfig::tune.enabled): fed per-completion feedback by the
     * engine's host stage, stepped on the TuneStep cadence.
     */
    std::unique_ptr<tune::AutoTuner> tuner;

    /**
     * Serving model of the tuned operating point (engine-owned
     * OpModelCache entry; stable until the engine dies). Null means
     * the class-default operating point serves — the state of every
     * session before its first retune, and of every session forever
     * when the tuner is off.
     */
    const tune::OpModel *opModel = nullptr;

    SessionStats stats;
};

} // namespace fleet
} // namespace redeye

#endif // REDEYE_FLEET_SESSION_HH
