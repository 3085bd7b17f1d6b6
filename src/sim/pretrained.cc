#include "sim/pretrained.hh"

#include <filesystem>
#include <unistd.h>

#include "core/logging.hh"
#include "core/rng.hh"
#include "models/mini_googlenet.hh"
#include "nn/quantize.hh"
#include "nn/serialize.hh"
#include "sim/training.hh"

namespace redeye {
namespace sim {

namespace {

/** Seed of the recipe's data stream: training set, then held-out. */
constexpr std::uint64_t kDataSeed = 0x11ab;
constexpr std::size_t kTrainPerClass = 80;
constexpr std::size_t kHeldOutPerClass = 20;

data::ShapesParams
shapesFor(PretrainedTask task)
{
    return task == PretrainedTask::Standard ? data::ShapesParams{}
                                            : data::ShapesParams::hard();
}

PretrainedSetup
buildPretrained(const std::string &cache_path, bool verbose,
                PretrainedTask task)
{
    PretrainedSetup setup;
    Rng wrng(0x517);
    setup.net = models::buildMiniGoogLeNet(data::kShapeClasses, wrng);

    if (!cache_path.empty() &&
        std::filesystem::exists(cache_path)) {
        nn::loadWeights(*setup.net, cache_path);
        return setup;
    }

    Rng drng(kDataSeed);
    const auto train =
        data::generateShapes(kTrainPerClass, shapesFor(task), drng);

    if (verbose)
        inform("training MiniGoogLeNet (first run; ~1 minute)...");
    TrainOptions opt;
    // The hard task converges slower; give it more epochs.
    opt.epochs = task == PretrainedTask::Standard ? 10 : 16;
    opt.solver.lrStep = 150;
    opt.solver.lrDecay = 0.5;
    opt.verbose = verbose;
    trainClassifier(*setup.net, train, opt);
    nn::quantizeNetworkWeights(*setup.net, 8);

    if (!cache_path.empty()) {
        // Write-and-rename so concurrent first runs (parallel test
        // processes) never observe a torn cache.
        const std::string tmp = cache_path + ".tmp." +
                                std::to_string(::getpid());
        nn::saveWeights(*setup.net, tmp);
        std::filesystem::rename(tmp, cache_path);
    }
    return setup;
}

} // namespace

PretrainedSetup
pretrainedMiniGoogLeNet(const std::string &cache_path, bool verbose)
{
    return buildPretrained(cache_path, verbose,
                           PretrainedTask::Standard);
}

PretrainedSetup
pretrainedMiniGoogLeNet(PretrainedTask task, bool verbose)
{
    return buildPretrained(task == PretrainedTask::Standard
                               ? "redeye_mini_weights.bin"
                               : "redeye_mini_hard_weights.bin",
                           verbose, task);
}

data::Dataset
pretrainedHeldOutSet(PretrainedTask task)
{
    const data::ShapesParams sp = shapesFor(task);
    Rng drng(kDataSeed);
    // Replay the training draw: it leaves the stream where the
    // held-out draw starts.
    data::generateShapes(kTrainPerClass, sp, drng);
    return data::generateShapes(kHeldOutPerClass, sp, drng);
}

} // namespace sim
} // namespace redeye
