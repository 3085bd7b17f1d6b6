#include "stream/frame_source.hh"

#include <cmath>

#include "core/logging.hh"
#include "core/rng.hh"

namespace redeye {
namespace stream {

ShapesReplaySource::ShapesReplaySource(data::Dataset dataset)
    : dataset_(std::move(dataset))
{
    fatal_if(dataset_.size() == 0,
             "replay source needs a non-empty dataset");
}

StreamFrame
ShapesReplaySource::frame(std::uint64_t index)
{
    StreamFrame f;
    fill(index, f);
    return f;
}

void
ShapesReplaySource::fill(std::uint64_t index, StreamFrame &frame)
{
    const std::size_t slot =
        static_cast<std::size_t>(index % dataset_.size());
    frame.index = index;
    dataset_.images.sliceInto(slot, frame.image);
    frame.label = dataset_.labels[slot];
    frame.emitS = 0.0;
    frame.predicted = -1;
    frame.analogEnergyJ = 0.0;
    frame.systemEnergyJ = 0.0;
    frame.failed = false;
    frame.analogBypassed = false;
    frame.failCode = StatusCode::Ok;
    // frame.features keeps its (stale) storage: downstream stages
    // overwrite the content and reuse the capacity.
}

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Unpaced:
        return "unpaced";
      case ArrivalKind::Fixed:
        return "fixed";
      case ArrivalKind::Poisson:
        return "poisson";
    }
    return "?";
}

double
ArrivalSchedule::interarrivalS(std::uint64_t index) const
{
    switch (kind) {
      case ArrivalKind::Unpaced:
        return 0.0;
      case ArrivalKind::Fixed:
        return rateHz > 0.0 ? 1.0 / rateHz : 0.0;
      case ArrivalKind::Poisson: {
        if (rateHz <= 0.0)
            return 0.0;
        // Exponential gap from the frame's keyed uniform: the
        // schedule is a pure function of (seed, index).
        return -std::log(streamUniform(seed, 0, index)) / rateHz;
      }
    }
    return 0.0;
}

ArrivalSchedule
ArrivalSchedule::unpaced()
{
    return ArrivalSchedule{ArrivalKind::Unpaced, 0.0, 0};
}

ArrivalSchedule
ArrivalSchedule::fixed(double rate_hz)
{
    fatal_if(!(std::isfinite(rate_hz) && rate_hz > 0.0),
             "fixed arrival rate must be finite and positive, got ",
             rate_hz);
    return ArrivalSchedule{ArrivalKind::Fixed, rate_hz, 0};
}

ArrivalSchedule
ArrivalSchedule::poisson(double rate_hz, std::uint64_t seed)
{
    fatal_if(!(std::isfinite(rate_hz) && rate_hz > 0.0),
             "Poisson arrival rate must be finite and positive, got ",
             rate_hz);
    return ArrivalSchedule{ArrivalKind::Poisson, rate_hz, seed};
}

} // namespace stream
} // namespace redeye
