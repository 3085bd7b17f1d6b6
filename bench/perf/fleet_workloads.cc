/**
 * @file
 * fleet_scale: the virtual-time fleet simulator, constructed and run
 * once per rep, single-threaded.
 */

#include <algorithm>

#include "core/logging.hh"
#include "core/structural_hash.hh"
#include "fleet/engine.hh"
#include "perf.hh"

namespace redeye::perf {

namespace {

/** The data plane at scale: no faults, no tuner, no content pass. */
fleet::FleetConfig
scaleConfig(std::uint64_t seed, double scale)
{
    fleet::FleetConfig cfg;
    cfg.sessions = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(10000 * scale)));
    cfg.framesPerSession = 32;
    cfg.sessionRateHz = 0.07;
    cfg.seed = seedFor(seed, 0xf1ee7);
    cfg.pool.devices = 16;
    cfg.pool.hostWorkers = 16;
    cfg.queueCapacity = 256;
    return cfg;
}

/** Digest of a report's counters: every rep must reproduce it. */
std::uint64_t
digest(const fleet::FleetReport &r)
{
    StructuralHasher h(0x9e7f);
    for (const std::uint64_t v :
         {r.offered, r.admitted, r.dropped, r.shed, r.completed,
          r.retries, r.hedges, r.hedgeWins, r.degraded,
          r.attemptTimeouts, r.probeSweeps, r.quarantines,
          r.recoveries, r.tuneSteps, r.retunes,
          static_cast<std::uint64_t>(r.opModelCount),
          r.programCacheHits, r.programCacheMisses, r.planCacheHits,
          r.planCacheMisses})
        h.mix(v);
    h.mixDouble(r.makespanS);
    for (const fleet::ClassReport &c : r.classes) {
        for (const std::uint64_t v : {c.offered, c.admitted, c.dropped,
                                      c.shed, c.completed,
                                      c.sloViolations})
            h.mix(v);
        h.mixDouble(c.p99S);
        h.mixDouble(c.meanSystemJ);
    }
    return h.digest();
}

/** Conservation, fleet-wide and per class. */
void
checkReport(const fleet::FleetReport &r, std::size_t rep, Result &out)
{
    const std::string at = "rep " + std::to_string(rep) + ": ";
    if (r.offered != r.admitted + r.dropped)
        out.violate(at + "offered != admitted + dropped");
    if (r.admitted != r.completed + r.shed)
        out.violate(at + "admitted != completed + shed");
    for (const fleet::ClassReport &c : r.classes) {
        const std::string cls = fleet::trafficClassName(c.cls);
        if (c.offered != c.admitted + c.dropped)
            out.violate(at + cls + ": offered != admitted + dropped");
        if (c.admitted != c.completed + c.shed)
            out.violate(at + cls + ": admitted != completed + shed");
    }
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

} // namespace

Result
runFleet(const std::string &name, const RunSpec &spec)
{
    if (name != "fleet_scale")
        fatal("unknown fleet workload '", name, "'");
    const fleet::FleetConfig cfg = scaleConfig(spec.seed, spec.fleetScale);

    // Reps until the budget is spent. A traced run alternates traced
    // and untraced reps; the untraced ones give the tracing overhead.
    const std::size_t min_reps =
        (spec.smoke ? 1 : 3) * (spec.traced() ? 2 : 1);
    Result r;
    std::vector<double> ctor_ms, run_ms, rep_ms, fps, fps_traced,
        ns_per_frame, cpu_ms_per_frame;
    fleet::FleetReport first;
    std::uint64_t first_digest = 0;
    const double cpu0 = cpuSeconds();
    const std::int64_t wall0 = nowNs();
    const std::int64_t end =
        wall0 + std::llround(spec.seconds * 1e9);
    std::uint64_t simulated = 0;
    for (std::size_t rep = 0; rep < min_reps || nowNs() < end; ++rep) {
        const bool traced = spec.traced() && rep % 2 == 1;
        const double cpu_t0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        fleet::FleetEngine engine(cfg);
        const std::int64_t t1 = nowNs();
        const fleet::FleetReport report = engine.run();
        const std::int64_t t2 = nowNs();
        const double rep_cpu_s = cpuSeconds() - cpu_t0;

        const std::size_t violations = r.violations.size();
        checkReport(report, rep, r);
        const std::uint64_t d = digest(report);
        if (rep == 0) {
            first = report;
            first_digest = d;
        } else if (d != first_digest) {
            r.violate("rep " + std::to_string(rep) +
                      ": counters differ from rep 0");
        }
        ++r.attempted;
        r.failed += r.violations.size() > violations;
        simulated += report.offered;

        const double run_s = static_cast<double>(t2 - t1) / 1e9;
        const double offered = static_cast<double>(report.offered);
        (traced ? fps_traced : fps).push_back(offered / run_s);
        if (spec.traced() != traced)
            continue;
        if (traced) {
            // Parent spans are added last, so link the children after.
            const std::int32_t ctor =
                spec.spans->add("fleet.ctor", rep, -1, 0, t0, t1);
            const std::int32_t run =
                spec.spans->add("fleet.run", rep, -1, 0, t1, t2);
            const std::int32_t whole =
                spec.spans->add("fleet.rep", rep, -1, 0, t0, t2);
            spec.spans->setParent(ctor, whole);
            spec.spans->setParent(run, whole);
        }
        ctor_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        run_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
        rep_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
        ns_per_frame.push_back(static_cast<double>(t2 - t1) /
                               std::max(offered, 1.0));
        cpu_ms_per_frame.push_back(1e3 * rep_cpu_s / std::max(offered, 1.0));
    }
    const double cpu_s = cpuSeconds() - cpu0;
    const double wall_s = static_cast<double>(nowNs() - wall0) / 1e9;

    const fleet::ClassReport &interactive =
        first.classes[fleet::classIndex(fleet::TrafficClass::Interactive)];
    std::uint64_t within_slo = 0;
    for (const fleet::ClassReport &c : first.classes)
        within_slo += c.completed - c.sloViolations;

    r.note("throughput_fps", median(fps), "frames/s");
    r.note("throughput_fps_q1", quantile(fps, 0.25), "frames/s");
    r.note("throughput_fps_q3", quantile(fps, 0.75), "frames/s");
    r.note("rep_wall_ms_p50", median(rep_ms), "ms");
    r.note("reps", static_cast<double>(fps.size() + fps_traced.size()),
           "count");
    r.note("digest_low32", static_cast<double>(first_digest & 0xffffffffu),
           "hash");
    r.note("sessions", static_cast<double>(cfg.sessions), "count");
    r.note("frames_offered_per_rep", static_cast<double>(first.offered),
           "count");

    if (!spec.traced()) {
        r.set("setup_s", median(ctor_ms) / 1e3);
        r.set("cpu_ms_per_frame", median(cpu_ms_per_frame));
        r.set("quality_pct", pct(within_slo, first.offered));
        return r;
    }

    r.set("process.cpu_ms_per_frame",
          1e3 * cpu_s /
              static_cast<double>(std::max<std::uint64_t>(simulated, 1)));
    r.set("process.cpu_util_pct",
          100.0 * cpu_s /
              (wall_s * static_cast<double>(allowedCpus().size())));
    r.set("fleet.ctor_ms", median(ctor_ms));
    r.set("fleet.run_ms_p50", median(run_ms));
    r.set("fleet.run_ms_iqr",
          quantile(run_ms, 0.75) - quantile(run_ms, 0.25));
    r.set("fleet.host_ns_per_frame", median(ns_per_frame));
    r.set("fleet.offered", static_cast<double>(first.offered));
    r.set("fleet.completed", static_cast<double>(first.completed));
    r.set("fleet.shed", static_cast<double>(first.shed));
    r.set("fleet.program_cache_hit_pct",
          pct(first.programCacheHits,
              first.programCacheHits + first.programCacheMisses));
    r.set("fleet.model.interactive_p99_ms", interactive.p99S * 1e3);
    r.set("fleet.model.interactive_slo_pct",
          interactive.sloAttainment * 100.0);
    r.set("fleet.model.host_util_pct", first.hostUtilization * 100.0);
    r.set("fleet.model.makespan_s", first.makespanS);
    r.set("trace.overhead_pct",
          100.0 * (1.0 - median(fps_traced) / median(fps)));
    return r;
}

} // namespace redeye::perf
