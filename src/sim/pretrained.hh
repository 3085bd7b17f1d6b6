/**
 * @file
 * Cached trained MiniGoogLeNet.
 *
 * The accuracy experiments need a trained classifier; training takes
 * about a minute. This helper trains once with a fixed, seeded
 * recipe and caches the weights next to the working directory. On a
 * cache hit it builds the network and reads the weights file, and
 * renders no images: the held-out evaluation set comes from
 * pretrainedHeldOutSet(), which only the processes that evaluate
 * accuracy call. Results are bit-identical either way.
 */

#ifndef REDEYE_SIM_PRETRAINED_HH
#define REDEYE_SIM_PRETRAINED_HH

#include <memory>
#include <string>

#include "data/shapes_dataset.hh"
#include "nn/network.hh"

namespace redeye {
namespace sim {

/** The trained network of the fixed recipe. */
struct PretrainedSetup {
    std::unique_ptr<nn::Network> net; ///< trained, 8-bit weights
};

/**
 * Return the standard trained MiniGoogLeNet.
 * Loads weights from @p cache_path when present; otherwise renders
 * the training set, trains (about a minute) and writes the cache.
 */
PretrainedSetup pretrainedMiniGoogLeNet(
    const std::string &cache_path = "redeye_mini_weights.bin",
    bool verbose = false);

/** Which classification task the pretrained model solves. */
enum class PretrainedTask {
    Standard, ///< high-contrast shapes; wide noise margin
    Hard,     ///< faint shapes in clutter; knee near the paper's
};

/**
 * Task-selected variant. The Hard task trains on
 * data::ShapesParams::hard() (cache "redeye_mini_hard_weights.bin"):
 * its smaller classification margin moves the accuracy-vs-SNR knee
 * up toward the paper's ImageNet behaviour.
 */
PretrainedSetup pretrainedMiniGoogLeNet(PretrainedTask task,
                                        bool verbose = false);

/**
 * The held-out evaluation set of @p task's recipe: 20 examples per
 * class, drawn from the recipe's data stream right after its
 * 80-per-class training set, which is rendered first to advance the
 * stream (about 0.25 s in all). Needs no weights.
 */
data::Dataset pretrainedHeldOutSet(PretrainedTask task);

} // namespace sim
} // namespace redeye

#endif // REDEYE_SIM_PRETRAINED_HH
