/**
 * @file
 * Figure 9 reproduction: task accuracy (dashed) and ConvNet
 * processing energy (solid) versus Gaussian SNR, at 4-bit
 * quantization.
 *
 * Accuracy is measured on two in-repo trained classifiers (the
 * ImageNet/GoogLeNet weights are not redistributable; see
 * DESIGN.md): the standard shapes task, and the low-margin "hard"
 * task whose accuracy knee sits near the paper's ~30 dB. Energy is
 * the calibrated GoogLeNet Depth5 processing energy. The reproduced
 * shape: accuracy is flat through the 40-60 dB operating range and
 * collapses at low SNR, while energy rises 10x per 10 dB — so 40 dB
 * is always the right operating point.
 */

#include <algorithm>
#include <iostream>

#include "core/csv.hh"
#include "core/table.hh"
#include "core/units.hh"
#include "models/mini_googlenet.hh"
#include "sim/experiments.hh"
#include "sim/pretrained.hh"

using namespace redeye;

int
main()
{
    auto standard = sim::pretrainedMiniGoogLeNet(
        sim::PretrainedTask::Standard, true);
    auto hard = sim::pretrainedMiniGoogLeNet(
        sim::PretrainedTask::Hard, true);
    const data::Dataset std_val =
        sim::pretrainedHeldOutSet(sim::PretrainedTask::Standard);
    const data::Dataset hard_val =
        sim::pretrainedHeldOutSet(sim::PretrainedTask::Hard);

    auto std_handles = sim::injectNoise(
        *standard.net, models::miniGoogLeNetAnalogLayers(4),
        sim::NoiseSpec{});
    auto hard_handles = sim::injectNoise(
        *hard.net, models::miniGoogLeNetAnalogLayers(4),
        sim::NoiseSpec{});

    const std::vector<double> snrs{70.0, 60.0, 50.0, 45.0, 40.0,
                                   35.0, 30.0, 25.0, 20.0, 15.0,
                                   10.0, 5.0};
    sim::EvalOptions opt;
    opt.topN = 5;
    opt.threads = 0; // auto: REDEYE_THREADS or hardware concurrency
    const auto std_pts = sim::accuracyVsSnr(
        *standard.net, std_handles, std_val, snrs, 4, opt);
    const auto hard_pts = sim::accuracyVsSnr(
        *hard.net, hard_handles, hard_val, snrs, 4, opt);

    std_handles.setEnabled(false);
    hard_handles.setEnabled(false);
    const auto std_clean = sim::evaluate(*standard.net, std_val,
                                         opt);
    const auto hard_clean = sim::evaluate(*hard.net, hard_val, opt);

    std::cout << "Figure 9: accuracy and ConvNet energy vs Gaussian "
                 "SNR (4-bit quantization)\n"
              << "clean accuracy — standard task: top-1 "
              << fmtPercent(std_clean.top1) << ", top-5 "
              << fmtPercent(std_clean.topN) << "; hard task: top-1 "
              << fmtPercent(hard_clean.top1) << ", top-5 "
              << fmtPercent(hard_clean.topN) << " ("
              << std_clean.images << " images)\n\n";

    TablePrinter table;
    table.setHeader({"SNR [dB]", "standard top-1/top-5",
                     "hard top-1/top-5",
                     "ConvNet E/frame (GoogLeNet D5)"});
    for (std::size_t i = 0; i < snrs.size(); ++i) {
        const double snr_for_energy = std::max(snrs[i], 25.0);
        table.addRow(
            {fmt(snrs[i], 0),
             fmtPercent(std_pts[i].top1) + " / " +
                 fmtPercent(std_pts[i].topN),
             fmtPercent(hard_pts[i].top1) + " / " +
                 fmtPercent(hard_pts[i].topN),
             units::siFormat(
                 sim::convNetEnergyAtSnr(5, snr_for_energy), "J")});
    }
    table.print(std::cout);

    CsvWriter csv("fig9.csv");
    csv.header({"snr_db", "std_top1", "std_top5", "hard_top1",
                "hard_top5", "convnet_energy_j"});
    for (std::size_t i = 0; i < snrs.size(); ++i) {
        csv.row({fmt(snrs[i], 1), fmt(std_pts[i].top1, 4),
                 fmt(std_pts[i].topN, 4), fmt(hard_pts[i].top1, 4),
                 fmt(hard_pts[i].topN, 4),
                 fmt(sim::convNetEnergyAtSnr(
                         5, std::max(snrs[i], 25.0)),
                     9)});
    }
    std::cout << "\n(series written to fig9.csv)\n";

    std::cout
        << "\nPaper shape: flat accuracy >= 40 dB (89% top-5 at "
           "40 dB on ImageNet), collapse below\n~30 dB; energy x10 "
           "per +10 dB -> always operate at 40 dB. The hard task's "
           "knee sits near\nthe paper's; the easy task degrades "
           "lower — the knee is task-margin-dependent.\n"
           "(Energy rows below 25 dB are clamped to the design's "
           "minimum-capacitance mode.)\n";
    return 0;
}
