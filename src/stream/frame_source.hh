/**
 * @file
 * Frame sources and arrival processes for the streaming runtime.
 *
 * A FrameSource maps a frame index to frame content; an
 * ArrivalSchedule maps a frame index to the gap separating it from
 * its predecessor. Both are pure functions of the index (arrival
 * gaps come from counter-based RNG streams, core/rng.hh), so a run's
 * offered load and frame content are reproducible bit-for-bit no
 * matter how the pipeline behind the source is threaded.
 */

#ifndef REDEYE_STREAM_FRAME_SOURCE_HH
#define REDEYE_STREAM_FRAME_SOURCE_HH

#include <cstdint>

#include "data/shapes_dataset.hh"
#include "stream/frame.hh"

namespace redeye {
namespace stream {

/** Produces frame content by index. */
class FrameSource
{
  public:
    virtual ~FrameSource() = default;

    /**
     * Materialize frame @p index. Implementations must return
     * identical content for identical indices (no hidden state), so
     * the runtime can offer the same workload across configurations.
     */
    virtual StreamFrame frame(std::uint64_t index) = 0;

    /**
     * Materialize frame @p index into @p frame, overwriting every
     * field and reusing the tensors' storage when capacities suffice.
     * This is the flavour the runner calls: together with its frame
     * recycling pool it keeps the source allocation-free in steady
     * state. The default forwards to frame() (correct, allocates).
     */
    virtual void
    fill(std::uint64_t index, StreamFrame &frame)
    {
        frame = this->frame(index);
    }
};

/**
 * Replays a pre-generated shapes dataset in a loop: frame i is
 * example (i mod N). The dataset is generated once up front, so the
 * per-frame cost is one image copy — the source never becomes the
 * bottleneck being measured.
 */
class ShapesReplaySource : public FrameSource
{
  public:
    /** @param dataset Examples to cycle through (must be non-empty). */
    explicit ShapesReplaySource(data::Dataset dataset);

    StreamFrame frame(std::uint64_t index) override;

    /** In-place replay: copies the example into recycled storage. */
    void fill(std::uint64_t index, StreamFrame &frame) override;

    /** Examples in the replay loop. */
    std::size_t size() const { return dataset_.size(); }

  private:
    data::Dataset dataset_;
};

/** Shape of the inter-arrival process. */
enum class ArrivalKind {
    Unpaced, ///< frames offered back-to-back (closed-loop load)
    Fixed,   ///< deterministic 1/rate gaps
    Poisson, ///< exponential gaps (open-loop Poisson arrivals)
};

/** Name of an arrival kind. */
const char *arrivalKindName(ArrivalKind kind);

/**
 * Deterministic arrival schedule: interarrivalS(i) is the gap between
 * frame i-1 and frame i, derived for Poisson arrivals from the keyed
 * uniform streamUniform(seed, 0, i).
 */
struct ArrivalSchedule {
    ArrivalKind kind = ArrivalKind::Unpaced;
    double rateHz = 0.0;        ///< mean arrival rate (Fixed/Poisson)
    std::uint64_t seed = 0xa221;

    /** Gap before frame @p index, in seconds. */
    double interarrivalS(std::uint64_t index) const;

    /** Unpaced (as-fast-as-possible) schedule. */
    static ArrivalSchedule unpaced();

    /** Fixed-rate schedule at @p rate_hz frames per second (finite,
     * positive). */
    static ArrivalSchedule fixed(double rate_hz);

    /** Poisson schedule with mean rate @p rate_hz (finite, positive). */
    static ArrivalSchedule poisson(double rate_hz,
                                   std::uint64_t seed = 0xa221);
};

} // namespace stream
} // namespace redeye

#endif // REDEYE_STREAM_FRAME_SOURCE_HH
