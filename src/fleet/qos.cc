#include "fleet/qos.hh"

namespace redeye {
namespace fleet {

const char *
trafficClassName(TrafficClass cls)
{
    switch (cls) {
      case TrafficClass::Interactive:
        return "interactive";
      case TrafficClass::Background:
        return "background";
      case TrafficClass::BestEffort:
        return "best-effort";
    }
    return "?";
}

QosTable
defaultQosTable()
{
    // The shares bound queueing delay, so the latency class gets the
    // SHALLOWEST queue: with weight w of W total and queue share q of
    // capacity C over a pool draining at R fps, the worst served
    // latency is roughly qC / (R w / W) + service — the shares below
    // keep that under each class's SLO at the default capacity.
    QosClassConfig interactive;
    interactive.weight = 8;
    interactive.reservedShare = 0.05;
    interactive.maxShare = 0.125;
    interactive.sloMultiplier = 6.0;
    interactive.depth = 1;
    interactive.convSnrDb = 40.0;
    interactive.adcBits = 4;
    // The latency class is the only one worth paying duplicate work
    // for: tail trimming via hedged dispatch (DESIGN.md §13).
    interactive.hedge = true;

    QosClassConfig background;
    background.weight = 3;
    background.reservedShare = 0.1;
    background.maxShare = 0.25;
    background.sloMultiplier = 32.0;
    background.depth = 1;
    background.convSnrDb = 35.0;
    background.adcBits = 4;

    // The scavenger may fill whatever queue space the others leave
    // (no cap, no reservation): it soaks up idle capacity, and under
    // pressure higher-class pushes evict it first — the shed-first
    // contract is this line plus reservedShare = 0.
    QosClassConfig best_effort;
    best_effort.weight = 1;
    best_effort.reservedShare = 0.0;
    best_effort.maxShare = 1.0;
    best_effort.sloMultiplier = 256.0;
    best_effort.depth = 1;
    best_effort.convSnrDb = 30.0;
    best_effort.adcBits = 3;
    // Scavenger traffic gets one fewer attempt and half the retry
    // budget: under failure its work is the first to give way.
    best_effort.maxAttempts = 2;
    best_effort.retryBudgetRatio = 0.05;

    return {interactive, background, best_effort};
}

} // namespace fleet
} // namespace redeye
