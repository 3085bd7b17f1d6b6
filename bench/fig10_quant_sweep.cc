/**
 * @file
 * Figure 10 reproduction: task accuracy (dashed) and quantization
 * energy (solid) versus ADC resolution, at 40 dB Gaussian SNR.
 *
 * The reproduced shape: accuracy is robust from 4-6 bits and
 * degrades as the ADC loses resolution, while readout energy
 * roughly doubles per bit — the paper's accuracy-energy tradeoff in
 * the "effective region of quantization scaling".
 */

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
    auto setup = sim::pretrainedMiniGoogLeNet(
        "redeye_mini_weights.bin", true);
    auto handles = sim::injectNoise(
        *setup.net, models::miniGoogLeNetAnalogLayers(4),
        sim::NoiseSpec{});
    const data::Dataset val =
        sim::pretrainedHeldOutSet(sim::PretrainedTask::Standard);

    const std::vector<unsigned> bits{10, 8, 7, 6, 5, 4, 3, 2, 1};
    sim::EvalOptions opt;
    opt.topN = 5;
    opt.threads = 0; // auto: REDEYE_THREADS or hardware concurrency
    const auto points = sim::accuracyVsBits(*setup.net, handles, val,
                                            bits, 40.0, opt);

    std::cout << "Figure 10: accuracy and quantization energy vs "
                 "ADC resolution (Gaussian SNR = 40 dB)\n\n";

    TablePrinter table;
    table.setHeader({"ADC bits", "ideal qSNR [dB]", "top-1", "top-5",
                     "readout E/frame (GoogLeNet D5)",
                     "output data (D5)"});
    for (const auto &p : points) {
        const double e = sim::quantizationEnergyAtBits(5, p.adcBits);
        const double bytes = 14.0 * 14 * 512 * p.adcBits / 8.0;
        table.addRow({std::to_string(p.adcBits),
                      fmt(6.02 * p.adcBits + 1.76, 1),
                      fmtPercent(p.top1), fmtPercent(p.topN),
                      units::siFormat(e, "J"),
                      units::siFormat(bytes, "B", 0)});
    }
    table.print(std::cout);

    CsvWriter csv("fig10.csv");
    csv.header({"adc_bits", "top1", "top5", "readout_energy_j",
                "output_bytes"});
    for (const auto &p : points) {
        csv.row({std::to_string(p.adcBits), fmt(p.top1, 4),
                 fmt(p.topN, 4),
                 fmt(sim::quantizationEnergyAtBits(5, p.adcBits), 9),
                 fmt(14.0 * 14 * 512 * p.adcBits / 8.0, 0)});
    }
    std::cout << "\n(series written to fig10.csv)\n";

    std::cout << "\nPaper shape: 4-6 bits hold accuracy; fewer bits "
                 "degrade it; readout energy ~2x per bit.\n";
    return 0;
}
