/**
 * @file
 * Fault-injection sweep for the streaming vision pipeline.
 *
 * Arms dead-column campaigns of increasing severity on the RedEye
 * device stage and serves the trained MiniGoogLeNet replay workload
 * three ways per rate:
 *
 *   clean          pristine silicon (the accuracy/energy reference)
 *   uncompensated  faults armed, degradation policy off
 *   degraded       faults armed, probe + degradation policy on
 *                  (remap below the bypass fraction, full analog
 *                  bypass past it)
 *
 * and reports top-1 accuracy and energy per frame for each point —
 * the recovery curve of the graceful-degradation subsystem.
 *
 * Flags:
 *   --dead LIST       dead-column rates (default "0.05,0.25,0.75")
 *   --frames N        frames served per run (default 48)
 *   --per-class N     replay examples per class (default 4; the
 *                     pretrained validation set is used instead when
 *                     it is at least this large)
 *   --depth D         MiniGoogLeNet analog depth cut (default 1)
 *   --probe-period N  frames between calibration probes (default 16)
 *   --workers N       device-stage workers (default 3)
 *   --seed S          campaign realization seed (default 0xfa017)
 *   --csv PATH        also write the sweep as CSV
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "core/logging.hh"
#include "core/table.hh"
#include "core/units.hh"
#include "models/mini_googlenet.hh"
#include "sim/pretrained.hh"
#include "stream/vision.hh"

using namespace redeye;

namespace {

struct Options {
    std::vector<double> deadRates{0.05, 0.25, 0.75};
    std::uint64_t frames = 48;
    std::size_t perClass = 4;
    unsigned depth = 1;
    std::uint64_t probePeriod = 16;
    std::size_t workers = 3;
    std::uint64_t seed = 0xfa017;
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
        if (arg == "--dead") {
            opt.deadRates = parseDoubles(value());
        } else if (arg == "--frames") {
            opt.frames = std::stoull(value());
        } else if (arg == "--per-class") {
            opt.perClass = std::stoul(value());
        } else if (arg == "--depth") {
            opt.depth = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--probe-period") {
            opt.probePeriod = std::stoull(value());
        } else if (arg == "--workers") {
            opt.workers = std::stoul(value());
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value(), nullptr, 0);
        } else {
            fatal("unknown flag '", arg, "'");
        }
    }
    return opt;
}

/** Top-1 accuracy of the served frames against the replay labels. */
double
accuracy(const stream::StreamReport &r, const data::Dataset &dataset)
{
    std::size_t right = 0, served = 0;
    for (std::size_t i = 0; i < r.predictions.size(); ++i) {
        if (r.predictions[i] == -1)
            continue;
        ++served;
        if (r.predictions[i] == dataset.labels[i % dataset.size()])
            ++right;
    }
    return served ? static_cast<double>(right) /
                        static_cast<double>(served)
                  : 0.0;
}

/** One sweep run. */
struct Point {
    double deadRate = 0.0;
    std::size_t deadColumns = 0;
    std::string config; ///< clean | uncompensated | degraded
    double accuracy = 0.0;
    stream::StreamReport report;
};

Point
runPoint(const Options &opt, stream::FrameSource &source,
         const data::Dataset &dataset, stream::VisionConfig vc,
         double dead_rate, const char *config)
{
    stream::RunnerConfig rc;
    rc.frames = opt.frames;
    rc.queueCapacity = 4;

    stream::StreamRunner runner(source, makeVisionStages(vc), rc);
    Point p;
    p.deadRate = dead_rate;
    p.deadColumns =
        vc.faults ? vc.faults->deadColumnCount() : 0;
    p.config = config;
    p.report = runner.run();
    p.accuracy = accuracy(p.report, dataset);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    std::shared_ptr<nn::Network> weights =
        sim::pretrainedMiniGoogLeNet().net;
    data::Dataset held_out =
        sim::pretrainedHeldOutSet(sim::PretrainedTask::Standard);
    const data::Dataset dataset =
        held_out.size() >= opt.perClass * data::kShapeClasses
            ? std::move(held_out)
            : stream::makeReplayDataset(opt.perClass, 0x5eed);
    stream::ShapesReplaySource source(dataset);

    std::cout << "fault_sweep: depth " << opt.depth << ", "
              << opt.frames << " frames per run, probe period "
              << opt.probePeriod << ", campaign seed 0x" << std::hex
              << opt.seed << std::dec << "\n\n";

    stream::VisionConfig base;
    base.depth = opt.depth;
    base.weights = weights;
    base.deviceWorkers = opt.workers;

    std::vector<Point> points;
    points.push_back(
        runPoint(opt, source, dataset, base, 0.0, "clean"));
    const double acc_clean = points.front().accuracy;

    for (double rate : opt.deadRates) {
        auto faults = std::make_shared<fault::FaultModel>(
            fault::FaultCampaign::deadColumns(rate, opt.seed),
            models::kMiniInputSize);

        stream::VisionConfig raw = base;
        raw.faults = faults;
        points.push_back(
            runPoint(opt, source, dataset, raw, rate,
                     "uncompensated"));

        stream::VisionConfig fixed = raw;
        fixed.degrade.enabled = true;
        fixed.degrade.probePeriod = opt.probePeriod;
        points.push_back(
            runPoint(opt, source, dataset, fixed, rate, "degraded"));
    }

    TablePrinter table("dead-column sweep");
    table.setHeader({"dead rate", "dead cols", "config", "accuracy",
                     "vs clean", "analog E/frame", "system E/frame"});
    for (const Point &p : points) {
        table.addRow(
            {fmt(p.deadRate, 2), std::to_string(p.deadColumns),
             p.config, fmt(p.accuracy, 3),
             acc_clean > 0.0 ? fmt(p.accuracy / acc_clean, 3) : "-",
             units::siFormat(p.report.analogEnergyMeanJ, "J"),
             units::siFormat(p.report.systemEnergyMeanJ, "J")});
    }
    table.print(std::cout);

    std::cout
        << "\nRemap steers work off probed-dead columns and recovers "
           "near-clean accuracy\nat unchanged energy; past the bypass "
           "fraction the policy routes around the\nanalog stage "
           "entirely — zero analog energy, digital-tail accuracy, "
           "higher\nsystem energy per frame.\n";

    if (!opt.csvPath.empty()) {
        CsvWriter csv(opt.csvPath);
        csv.header({"dead_rate", "dead_columns", "config", "accuracy",
                    "accuracy_vs_clean", "frames_completed",
                    "frames_failed", "analog_j_per_frame",
                    "system_j_per_frame"});
        for (const Point &p : points) {
            csv.row({fmt(p.deadRate, 4),
                     std::to_string(p.deadColumns), p.config,
                     fmt(p.accuracy, 4),
                     acc_clean > 0.0 ? fmt(p.accuracy / acc_clean, 4)
                                     : "",
                     std::to_string(p.report.framesCompleted),
                     std::to_string(p.report.framesFailed),
                     fmt(p.report.analogEnergyMeanJ, 9),
                     fmt(p.report.systemEnergyMeanJ, 9)});
        }
        std::cout << "\nwrote " << csv.rows() << " sweep rows to "
                  << csv.path() << "\n";
    }
    return 0;
}
