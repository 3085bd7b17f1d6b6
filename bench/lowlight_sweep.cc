/**
 * @file
 * Section VII "situational uses for noise scaling", measured: task
 * accuracy under the full sampling chain (inverse gamma, Poisson
 * shot noise, fixed-pattern noise) as illumination falls, at three
 * RedEye fidelity settings.
 *
 * The reproduced effect: in bright scenes the cheap 40 dB / 4-bit
 * mode matches the ideal pipeline, so fidelity is wasted energy; as
 * the scene darkens, the shot-noise floor first makes RedEye's
 * noise co-dominant (higher fidelity helps) and finally dominates
 * everything (no fidelity setting helps — input-limited).
 */

#include <iostream>

#include "core/table.hh"
#include "models/mini_googlenet.hh"
#include "noise/sensor_noise.hh"
#include "sim/evaluator.hh"
#include "sim/noise_injector.hh"
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

    struct Scene {
        const char *name;
        double illumination;
    };
    const Scene scenes[] = {
        {"bright (1.0x)", 1.0},   {"indoor (0.3x)", 0.3},
        {"dim (0.1x)", 0.1},      {"dark (0.03x)", 0.03},
        {"moonlit (0.01x)", 0.01},
    };

    struct Mode {
        const char *name;
        double snrDb;
        unsigned bits;
        bool enabled;
    };
    const Mode modes[] = {
        {"RedEye 40 dB / 4-bit", 40.0, 4, true},
        {"RedEye 60 dB / 8-bit", 60.0, 8, true},
        {"ideal (no analog noise)", 0.0, 0, false},
    };

    std::cout << "Low-light sweep: top-1 accuracy vs illumination "
                 "and RedEye fidelity\n(sampling chain: inverse "
                 "gamma, Poisson shot noise, fixed-pattern noise)\n"
                 "\n";

    TablePrinter table;
    table.setHeader({"scene", "sensor SNR",
                     "RedEye 40dB/4b", "RedEye 60dB/8b",
                     "ideal pipeline"});

    for (const auto &scene : scenes) {
        noise::SensorParams sp;
        sp.illuminationScale = scene.illumination;
        noise::SensorSamplingLayer probe("probe", sp, Rng(1));

        std::vector<std::string> cells{
            scene.name, fmt(probe.expectedSnrDb(), 1) + " dB"};
        for (const auto &mode : modes) {
            handles.setEnabled(mode.enabled);
            if (mode.enabled) {
                handles.setSnrDb(mode.snrDb);
                handles.setAdcBits(mode.bits);
            }
            sim::EvalOptions opt;
            opt.topN = 5;
            opt.threads = 0; // auto thread count
            opt.sensor = sp;
            const auto r = sim::evaluate(*setup.net, val, opt);
            cells.push_back(fmtPercent(r.top1));
        }
        handles.setEnabled(true);
        table.addRow(cells);
    }
    table.print(std::cout);

    std::cout << "\n'Dynamically scaling RedEye noise enables "
                 "operation in poorly lit environments, at\nthe "
                 "cost of higher energy consumption' — and below "
                 "the input's own noise floor, spending\nmore "
                 "fidelity buys nothing.\n";
    return 0;
}
