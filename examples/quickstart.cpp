/**
 * @file
 * Quickstart: the complete RedEye workflow in one program.
 *
 *  1. obtain a trained ConvNet (the in-repo MiniGoogLeNet),
 *  2. partition it: the analog prefix runs on RedEye, the tail on
 *     the digital host,
 *  3. compile the prefix into a RedEye program and estimate energy,
 *  4. execute one frame functionally through the analog circuit
 *     models and classify the exported features with the digital
 *     tail,
 *  5. compare against the all-digital reference.
 */

#include <iostream>

#include "core/rng.hh"
#include "core/units.hh"
#include "models/mini_googlenet.hh"
#include "nn/softmax.hh"
#include "redeye/compiler.hh"
#include "redeye/device.hh"
#include "redeye/scheduler.hh"
#include "redeye/energy_model.hh"
#include "sim/pretrained.hh"

using namespace redeye;

int
main()
{
    // 1. Trained network (cached after the first run).
    std::cout << "== RedEye quickstart ==\n";
    auto setup = sim::pretrainedMiniGoogLeNet(
        "redeye_mini_weights.bin", true);
    nn::Network &net = *setup.net;
    std::cout << net.summary() << "\n";

    // 2. Partition: everything through the global pool runs in the
    // analog domain; only the classifier stays digital.
    const auto analog_layers = models::miniGoogLeNetAnalogLayers(5);
    std::cout << "analog prefix: " << analog_layers.size()
              << " layers; digital tail: classifier\n\n";

    // 3. Compile and estimate.
    arch::RedEyeConfig cfg;
    cfg.adcBits = 4;
    cfg.convSnrDb = 40.0;
    cfg.columns = models::kMiniInputSize;
    const auto program = arch::compile(net, analog_layers, cfg);
    std::cout << program.str() << "\n";
    std::cout << "flow control plan (cyclic reuse + bypass):\n"
              << arch::flowPlanStr(arch::flowPlan(program)) << "\n";

    arch::RedEyeModel model(program, cfg);
    const auto est = model.estimateFrame();
    std::cout << "estimated analog energy/frame: "
              << units::siFormat(est.energy.analogJ(), "J")
              << " (MAC " << units::siFormat(est.energy.macJ, "J")
              << ", readout "
              << units::siFormat(est.energy.readoutJ, "J") << ")\n"
              << "estimated analog time/frame:   "
              << units::siFormat(est.analogTimeS, "s") << "\n"
              << "exported features:             "
              << units::siFormat(est.outputBytes, "B", 0) << "\n\n";

    // 4. Execute one frame through the circuit-level engine.
    const data::Dataset val =
        sim::pretrainedHeldOutSet(sim::PretrainedTask::Standard);
    const Tensor frame = val.images.slice(0);
    const auto truth = val.labels[0];

    arch::ColumnArrayConfig array_cfg;
    array_cfg.columns = models::kMiniInputSize;
    array_cfg.convSnrDb = cfg.convSnrDb;
    array_cfg.adcBits = cfg.adcBits;
    arch::RedEyeDevice device(array_cfg,
                              analog::ProcessParams::typical(),
                              Rng(0xf00d));
    const auto run = device.run(net, analog_layers, frame);
    std::cout << "functional run: "
              << run.executedLayers.size() << " analog layers, "
              << units::siFormat(run.energy.totalJ(), "J")
              << " measured circuit energy, "
              << run.forcedDecisions
              << " forced comparator decisions\n";

    // 5. Classify the analog features with the digital tail and
    // compare with the all-digital answer.
    auto &classifier = net.layer("classifier");
    Tensor analog_logits;
    std::vector<const Tensor *> ins{&run.features};
    classifier.forward(ins, analog_logits);

    net.forward(frame);
    const Tensor &digital_logits = net.activation("classifier");

    auto argmax = [](const Tensor &t) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < t.size(); ++i)
            if (t[i] > t[best])
                best = i;
        return best;
    };
    std::cout << "ground truth:      class " << truth << " ("
              << data::shapeClassName(
                     static_cast<std::size_t>(truth))
              << ")\n"
              << "digital reference: class "
              << argmax(digital_logits) << "\n"
              << "RedEye (analog):   class " << argmax(analog_logits)
              << "\n";
    return 0;
}
