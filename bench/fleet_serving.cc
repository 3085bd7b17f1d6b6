/**
 * @file
 * Multi-tenant fleet serving sweep.
 *
 * Scales the client count across orders of magnitude against a fixed
 * shared device pool and reports, per traffic class, the aggregate
 * throughput, tail latency (p50/p95/p99 from merged log-bucketed
 * histograms), SLO attainment, shedding and Jain fairness. The sweep
 * demonstrates the QoS contract under oversubscription: INTERACTIVE
 * holds its latency SLO while BEST_EFFORT is shed first, and
 * aggregate fps saturates at the pool's capacity instead of
 * collapsing.
 *
 * The engine is the virtual-time simulator of src/fleet (service
 * times from the repo's analytic device/host models), so a 10k-client
 * point runs in seconds and every number is a pure function of the
 * seed.
 *
 * Flags:
 *   --clients LIST     session counts to sweep (default
 *                      "1,10,100,1000,10000")
 *   --devices N        RedEye devices in the pool (default 16)
 *   --hosts N          host tail workers (default 16)
 *   --frames N         frames offered per session (default 32)
 *   --rate R           per-session Poisson arrival rate in fps
 *                      (default 2)
 *   --mix A,B,C        interactive,background,best-effort fractions
 *                      (default 0.6,0.3,0.1)
 *   --capacity N       shared queue bound (default 256)
 *   --faulty F         fraction of devices with dead columns
 *                      (default 0.25)
 *   --bricked F        fraction of devices beyond remapping
 *                      (default 0.125)
 *   --content N        sessions that also execute real frame content
 *                      (default 0)
 *   --content-threads T  threads for the content pass (default 2)
 *   --content-batch N  host-tail batch size of the content pass
 *                      (default 1; predictions are batch-invariant)
 *   --ft               enable the fault-tolerance layer (deadlines,
 *                      retry/backoff, hedging, brownout)
 *   --probe-period S   calibration-probe sweep period in virtual
 *                      seconds (default 0.25 when --ft is given)
 *   --onset-frames N   per-device fault onset horizon in served
 *                      frames (default 0 = faults present from birth)
 *   --seed S           fleet seed (default 0xf1ee7)
 *   --csv PATH         also write the sweep as CSV
 */

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "core/logging.hh"
#include "core/table.hh"
#include "core/units.hh"
#include "fleet/engine.hh"

using namespace redeye;

namespace {

struct Options {
    std::vector<std::size_t> clients{1, 10, 100, 1000, 10000};
    std::size_t devices = 16;
    std::size_t hosts = 16;
    std::uint64_t frames = 32;
    double rateHz = 2.0;
    std::array<double, fleet::kTrafficClasses> mix = {0.6, 0.3, 0.1};
    std::size_t capacity = 256;
    double faulty = 0.25;
    double bricked = 0.125;
    std::size_t content = 0;
    std::size_t contentThreads = 2;
    std::size_t contentBatch = 1;
    bool ft = false;
    double probePeriodS = 0.25;
    std::uint64_t onsetFrames = 0;
    std::uint64_t seed = 0xf1ee7;
    std::string csvPath;
};

std::vector<double>
parseDoubles(const std::string &list)
{
    std::vector<double> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(std::stod(item));
    fatal_if(out.empty(), "empty list: ", list);
    return out;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    opt.csvPath = stripCsvFlag(argc, argv);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            fatal_if(i + 1 >= argc, arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--clients") {
            opt.clients.clear();
            for (double c : parseDoubles(value()))
                opt.clients.push_back(static_cast<std::size_t>(c));
        } else if (arg == "--devices") {
            opt.devices = std::stoul(value());
        } else if (arg == "--hosts") {
            opt.hosts = std::stoul(value());
        } else if (arg == "--frames") {
            opt.frames = std::stoull(value());
        } else if (arg == "--rate") {
            opt.rateHz = std::stod(value());
        } else if (arg == "--mix") {
            const auto mix = parseDoubles(value());
            fatal_if(mix.size() != fleet::kTrafficClasses,
                     "--mix needs ", fleet::kTrafficClasses,
                     " fractions");
            for (std::size_t c = 0; c < fleet::kTrafficClasses; ++c)
                opt.mix[c] = mix[c];
        } else if (arg == "--capacity") {
            opt.capacity = std::stoul(value());
        } else if (arg == "--faulty") {
            opt.faulty = std::stod(value());
        } else if (arg == "--bricked") {
            opt.bricked = std::stod(value());
        } else if (arg == "--content") {
            opt.content = std::stoul(value());
        } else if (arg == "--content-threads") {
            opt.contentThreads = std::stoul(value());
        } else if (arg == "--content-batch") {
            opt.contentBatch = std::stoul(value());
        } else if (arg == "--ft") {
            opt.ft = true;
        } else if (arg == "--probe-period") {
            opt.probePeriodS = std::stod(value());
        } else if (arg == "--onset-frames") {
            opt.onsetFrames = std::stoull(value());
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value(), nullptr, 0);
        } else {
            fatal("unknown flag '", arg, "'");
        }
    }
    return opt;
}

fleet::FleetConfig
fleetConfig(const Options &opt, std::size_t clients)
{
    fleet::FleetConfig cfg;
    cfg.sessions = clients;
    cfg.framesPerSession = opt.frames;
    cfg.sessionRateHz = opt.rateHz;
    cfg.mix = opt.mix;
    cfg.seed = opt.seed;
    cfg.pool.devices = opt.devices;
    cfg.pool.hostWorkers = opt.hosts;
    cfg.pool.faultyFraction = opt.faulty;
    cfg.pool.brickedFraction = opt.bricked;
    cfg.queueCapacity = opt.capacity;
    cfg.contentSessions = std::min(opt.content, clients);
    cfg.contentThreads = opt.contentThreads;
    cfg.contentBatch = opt.contentBatch;
    if (opt.ft) {
        cfg.ft.enabled = true;
        cfg.ft.probePeriodS = opt.probePeriodS;
        cfg.pool.onsetHorizonFrames = opt.onsetFrames;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    std::cout << "fleet_serving: pool of " << opt.devices
              << " devices + " << opt.hosts << " hosts, "
              << opt.frames << " frames/session @ " << opt.rateHz
              << " fps, queue capacity " << opt.capacity << "\n\n";

    TablePrinter table("fleet scaling sweep");
    table.setHeader({"clients", "class", "offered", "done", "drop",
                     "shed", "fps", "p50", "p99", "slo%", "jain"});

    struct Row {
        std::size_t clients;
        fleet::ClassReport cls;
        double deviceUtil;
        double hostUtil;
    };
    std::vector<Row> rows;
    std::vector<fleet::FleetReport> reports;

    for (std::size_t clients : opt.clients) {
        fleet::FleetEngine engine(fleetConfig(opt, clients));
        const fleet::FleetReport report = engine.run();
        std::cout << "clients " << clients << ":\n";
        report.print(std::cout);
        std::cout << "\n";

        for (const fleet::ClassReport &c : report.classes) {
            if (c.sessions == 0)
                continue;
            // A class can legitimately complete nothing (total shed
            // past saturation): its latency distribution is empty,
            // so show "-" instead of a fake 0s percentile.
            const bool served = c.completed > 0;
            table.addRow({std::to_string(clients),
                          fleet::trafficClassName(c.cls),
                          std::to_string(c.offered),
                          std::to_string(c.completed),
                          std::to_string(c.dropped),
                          std::to_string(c.shed), fmt(c.fps, 1),
                          served ? units::siFormat(c.p50S, "s") : "-",
                          served ? units::siFormat(c.p99S, "s") : "-",
                          fmt(c.sloAttainment * 100.0, 1),
                          fmt(c.fairness, 3)});
            rows.push_back(Row{clients, c, report.deviceUtilization,
                               report.hostUtilization});
        }
        reports.push_back(report);
    }

    table.print(std::cout);

    std::cout
        << "\nAggregate fps rises with the client count until the "
           "pool saturates; past\nsaturation admission sheds "
           "best-effort traffic first, so the interactive\nclass "
           "keeps its SLO while scavenger percentiles grow.\n";

    if (!opt.csvPath.empty()) {
        CsvWriter csv(opt.csvPath);
        // Column names shared with bench/stream_serving where the
        // quantity is the same, so plots join on either sweep.
        csv.header({"clients", "class", "sessions", "offered",
                    "admitted", "dropped", "shed", "completed",
                    "sustained_fps", "latency_p50_s",
                    "latency_p95_s", "latency_p99_s", "slo_s",
                    "slo_attainment", "fairness",
                    "system_j_per_frame", "device_util",
                    "host_util",
                    // Fault-tolerance attribution (all zero with the
                    // layer off, so joins stay schema-stable).
                    "retries", "hedges", "hedge_wins", "degraded",
                    "shed_deadline", "shed_unavailable",
                    "shed_resource", "shed_brownout"});
        for (const Row &r : rows) {
            // Empty cells (not zeros) for the latency columns of a
            // class that completed nothing: a zero would read as a
            // perfect percentile in downstream plots.
            const bool served = r.cls.completed > 0;
            csv.row({std::to_string(r.clients),
                     fleet::trafficClassName(r.cls.cls),
                     std::to_string(r.cls.sessions),
                     std::to_string(r.cls.offered),
                     std::to_string(r.cls.admitted),
                     std::to_string(r.cls.dropped),
                     std::to_string(r.cls.shed),
                     std::to_string(r.cls.completed),
                     fmt(r.cls.fps, 4),
                     served ? fmt(r.cls.p50S, 6) : "",
                     served ? fmt(r.cls.p95S, 6) : "",
                     served ? fmt(r.cls.p99S, 6) : "",
                     fmt(r.cls.sloS, 6),
                     fmt(r.cls.sloAttainment, 4),
                     fmt(r.cls.fairness, 4),
                     fmt(r.cls.meanSystemJ, 9),
                     fmt(r.deviceUtil, 4), fmt(r.hostUtil, 4),
                     std::to_string(r.cls.retries),
                     std::to_string(r.cls.hedges),
                     std::to_string(r.cls.hedgeWins),
                     std::to_string(r.cls.degraded),
                     std::to_string(r.cls.shedDeadline),
                     std::to_string(r.cls.shedUnavailable),
                     std::to_string(r.cls.shedResource),
                     std::to_string(r.cls.shedBrownout)});
        }
        std::cout << "\nwrote " << csv.rows() << " sweep rows to "
                  << csv.path() << "\n";
    }
    return 0;
}
