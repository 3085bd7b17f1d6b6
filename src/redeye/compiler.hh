/**
 * @file
 * ConvNet-to-RedEye compiler.
 *
 * Lowers the analog prefix of a partitioned network onto RedEye
 * module engagements:
 *
 *  - Convolution   -> convolutional module instruction
 *  - ReLU          -> folded into the preceding convolution (the
 *                     module clips at maximum swing)
 *  - LRN           -> folded as weight renormalization of the
 *                     preceding convolution (Section III-B)
 *  - MaxPool       -> max pooling module instruction
 *  - AvgPool       -> lowered to a convolution with uniform weights
 *  - Concat        -> pure routing (flow control), no instruction
 *  - anything else -> rejected: RedEye cannot execute it; the
 *                     developer must cut the partition earlier
 *
 * A quantization instruction is appended at the cut.
 *
 * compileOrStatus() reports malformed inputs (empty partition,
 * unknown layers, out-of-range ADC resolution, zero-sized shapes,
 * kernels larger than their padded input, unsupported kinds) as a
 * typed core::Status; compile() is the legacy fatal-on-error
 * wrapper for batch tools.
 */

#ifndef REDEYE_REDEYE_COMPILER_HH
#define REDEYE_REDEYE_COMPILER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/content_cache.hh"
#include "core/status.hh"
#include "redeye/config.hh"
#include "redeye/program.hh"

namespace redeye {

namespace nn {
class Network;
}

namespace arch {

/**
 * Compile the prefix of @p net formed by @p analog_layers into a
 * RedEye program under @p config, or a non-OK Status describing the
 * first defect found.
 */
StatusOr<Program>
compileOrStatus(nn::Network &net,
                const std::vector<std::string> &analog_layers,
                const RedEyeConfig &config);

/** Like compileOrStatus(), but a malformed input is fatal. */
Program compile(nn::Network &net,
                const std::vector<std::string> &analog_layers,
                const RedEyeConfig &config);

/**
 * Content address of a compiled program: a stable 64-bit key over the
 * network's structural hash, the partition layer list and the
 * operating point (ADC resolution, SNR programming, clocks). A
 * compiled Program is a pure function of exactly these inputs — it
 * holds no weight values — so equal keys imply equal programs.
 */
std::uint64_t programKey(const nn::Network &net,
                         const std::vector<std::string> &analog_layers,
                         const RedEyeConfig &config);

/**
 * Content-addressed cache of compiled programs (core/content_cache.hh)
 * under programKey(). Serving paths that re-derive a program per frame
 * (or per worker) fetch the shared immutable compilation instead of
 * re-running the compiler; a key change — new topology, new cut, new
 * operating point — misses and compiles fresh.
 */
class ProgramCache
{
  public:
    /**
     * Program for (net, analog_layers, config), compiling on the
     * first request. The returned pointer is immutable and outlives
     * the cache entry (shared ownership); a compile failure is
     * returned as the compiler's Status, neither cached nor counted.
     */
    StatusOr<std::shared_ptr<const Program>>
    compileOrStatus(nn::Network &net,
                    const std::vector<std::string> &analog_layers,
                    const RedEyeConfig &config);

    /** Lookups served from the cache. */
    std::uint64_t hits() const { return programs_.hits(); }

    /** Lookups that compiled. */
    std::uint64_t misses() const { return programs_.misses(); }

    /** Cached programs. */
    std::size_t size() const { return programs_.size(); }

  private:
    ContentCache<std::shared_ptr<const Program>> programs_;
};

} // namespace arch
} // namespace redeye

#endif // REDEYE_REDEYE_COMPILER_HH
