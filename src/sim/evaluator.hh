/**
 * @file
 * Task-accuracy evaluation (Top-N metric, Section V-A).
 *
 * Runs a labeled dataset through a (possibly noise-injected) network
 * and reports Top-1/Top-N accuracy. Optionally applies the raw
 * sensor sampling model (inverse gamma, Poisson shot noise, fixed
 * pattern noise) to every image first, as the paper does for its
 * input layer.
 */

#ifndef REDEYE_SIM_EVALUATOR_HH
#define REDEYE_SIM_EVALUATOR_HH

#include <cstddef>
#include <optional>

#include "core/exec.hh"
#include "data/shapes_dataset.hh"
#include "noise/sensor_noise.hh"

namespace redeye {

namespace nn {
class Network;
}

namespace sim {

/** Evaluation options. */
struct EvalOptions {
    std::size_t batchSize = 32;
    std::size_t topN = 5;
    std::size_t maxImages = 0; ///< 0 = whole dataset
    std::optional<noise::SensorParams> sensor; ///< raw sampling model

    /**
     * Worker threads for batch-parallel execution: 1 = serial
     * (default), 0 = auto (REDEYE_THREADS or hardware concurrency).
     * Results are bit-identical at any setting.
     */
    std::size_t threads = 1;
};

/** Accuracy results. */
struct EvalResult {
    double top1 = 0.0;
    double topN = 0.0;
    std::size_t images = 0;
};

/** Evaluate @p net on @p dataset. */
EvalResult evaluate(nn::Network &net, const data::Dataset &dataset,
                    const EvalOptions &options = EvalOptions{});

} // namespace sim
} // namespace redeye

#endif // REDEYE_SIM_EVALUATOR_HH
