/**
 * @file
 * Declarations shared by perf_bench's workloads, probes and main
 * program.
 */

#ifndef REDEYE_BENCH_PERF_PERF_HH
#define REDEYE_BENCH_PERF_PERF_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "stream/vision.hh"
#include "trace.hh"

namespace redeye::perf {

/** One named value. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports back to the parent process. */
struct Result {
    /** Contracted metrics by name; perf_bench.cc owns their units. */
    std::vector<Metric> metrics;

    /** Informational values (BENCH_*.json and stdout only). */
    std::vector<Metric> notes;

    std::uint64_t attempted = 0; ///< frames offered, or fleet reps
    std::uint64_t failed = 0;    ///< of those, lost or failing a check
    std::vector<std::string> violations; ///< failed output checks

    void
    set(const std::string &name, double value)
    {
        metrics.push_back({name, value, ""});
    }

    void
    note(const std::string &name, double value, const std::string &unit)
    {
        notes.push_back({name, value, unit});
    }

    void
    violate(const std::string &what)
    {
        violations.push_back(what);
    }

    /** Value of metric @p name; NaN when not set. */
    double get(const std::string &name) const;

    /**
     * Take @p other's metrics this result lacks, and its notes,
     * counts and violations (a companion run's share of a traced
     * run).
     */
    void absorb(const Result &other, const std::string &note_prefix);
};

/** Run length and mode, shared by every workload. */
struct RunSpec {
    std::uint64_t seed = 1;
    double seconds = 20.0;  ///< measurement budget of the phases
    double fleetScale = 1.0; ///< session-count multiplier
    bool smoke = false;     ///< ~1/50 length, no coverage check
    std::string weightsPath;
    SpanBuffer *spans = nullptr; ///< set = traced run

    bool traced() const { return spans != nullptr; }
};

/** Stream workloads: "analog_stream", "bypass_stream". */
Result runStream(const std::string &workload, const RunSpec &spec);

/** Fleet workload: "fleet_scale". */
Result runFleet(const std::string &workload, const RunSpec &spec);

/**
 * Layer probes (traced runs): the analog device steps, the digital
 * network's blocks and the GEMM shapes, timed from benchmark code
 * around calls into each module.
 */
void runLayerProbes(const RunSpec &spec, Result &result);

/**
 * The vision pipeline both stream workloads serve: depth 1, 40 dB,
 * 4-bit ADC, 2 device workers, one sensor and one host worker,
 * unbatched host. @p bypass kills every column and enables
 * degradation, so every frame takes the full digital network.
 */
stream::VisionConfig visionConfig(bool bypass,
                                  std::shared_ptr<nn::Network> weights);

/**
 * The stream workloads' replay images: a fixed evaluation set, so
 * accuracy_pct compares across seeds and commits. The workload seed
 * draws the arrival schedules.
 */
inline constexpr std::size_t kReplayPerClass = 10;
inline constexpr std::uint64_t kReplaySeed = 0x5eed;

/** Derive a per-purpose seed from the workload seed. */
std::uint64_t seedFor(std::uint64_t seed, std::uint64_t salt);

/** Process CPU time (user + system, all threads) in seconds. */
double cpuSeconds();

/** The CPUs this process may run on. */
std::vector<int> allowedCpus();

/**
 * Quantile @p q in [0, 1] of @p v, interpolating linearly between
 * closest ranks; +inf samples (lost frames) sort last. NaN when empty.
 */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace redeye::perf

#endif // REDEYE_BENCH_PERF_PERF_HH
