/**
 * @file
 * Noise-parameter tuning: the developer workflow of Section III-D.
 *
 * "Developers should search for an optimal set of parameters that
 * achieves task accuracy at minimal cost." This example loads the
 * trained classifier, injects the Gaussian/quantization noise
 * layers, and searches (simplex over SNR, scan over ADC bits) for
 * the cheapest configuration that keeps Top-5 accuracy at a target.
 */

#include <iostream>

#include "core/table.hh"
#include "core/units.hh"
#include "models/mini_googlenet.hh"
#include "sim/evaluator.hh"
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

    sim::EvalOptions opt;
    opt.topN = 5;
    opt.maxImages = 120; // subsample for the inner search loop

    handles.setEnabled(false);
    const auto clean = sim::evaluate(*setup.net, val, opt);
    handles.setEnabled(true);
    std::cout << "clean top-5 accuracy: " << fmtPercent(clean.topN)
              << "\n\n";

    TablePrinter table("Minimum-energy noise configuration per "
                       "accuracy target (GoogLeNet Depth5 energy "
                       "model)");
    table.setHeader({"target top-5", "SNR [dB]", "ADC bits",
                     "achieved", "ConvNet+readout E/frame",
                     "evaluations"});

    for (double target : {0.90, 0.95, 0.97}) {
        if (target > clean.topN) {
            std::cout << "skipping target " << fmtPercent(target)
                      << " (above clean accuracy)\n";
            continue;
        }
        const auto result = sim::tuneNoiseParameters(
            *setup.net, handles, val, target, 5, opt);
        table.addRow({fmtPercent(target), fmt(result.snrDb, 1),
                      std::to_string(result.adcBits),
                      fmtPercent(result.accuracy),
                      units::siFormat(result.energyJ, "J"),
                      std::to_string(result.evaluations)});
    }
    table.print(std::cout);

    std::cout << "\nPaper's conclusion: GoogLeNet tolerates as much "
                 "Gaussian noise as the modules admit\n(>= 40 dB), "
                 "so the search reduces to picking the quantization "
                 "resolution.\n";
    return 0;
}
