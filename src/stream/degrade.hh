/**
 * @file
 * Graceful degradation policy for a faulty analog array.
 *
 * Turns a calibration-probe report into a concrete plan:
 *
 *  - no suspects        -> Normal: run the array untouched.
 *  - a few suspects     -> Remap: steer logical positions off the
 *                          suspect columns (ColumnArray::setColumnMap)
 *                          and raise the ADC resolution to claw back
 *                          the precision the remap's column sharing
 *                          costs.
 *  - too many suspects  -> Bypass: the array is past saving; route
 *                          frames around the analog stage and let the
 *                          host run the full digital network (the
 *                          partition machinery's depth-0 path).
 *
 * planDegradation() is a pure function of (probe, config): every
 * pipeline worker derives the identical plan independently, so the
 * policy needs no shared mutable state and cannot race. Workers still
 * share plans, to probe each epoch once: DegradePlanCache is a
 * ContentCache (core/content_cache.hh) keyed by degradePlanKey().
 */

#ifndef REDEYE_STREAM_DEGRADE_HH
#define REDEYE_STREAM_DEGRADE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/content_cache.hh"
#include "redeye/column.hh"
#include "stream/probe.hh"

namespace redeye {
namespace stream {

/** How the pipeline treats the analog stage. */
enum class DegradeMode {
    Normal, ///< healthy array, no intervention
    Remap,  ///< steer work off suspect columns, boost the ADC
    Bypass, ///< skip the analog stage, host runs the full network
};

/** Name of a degradation mode. */
const char *degradeModeName(DegradeMode mode);

/** Policy knobs. */
struct DegradationPolicyConfig {
    bool enabled = false;        ///< run probes and apply plans

    /**
     * Frames per probe epoch: frame i uses the plan probed at frame
     * (i / probePeriod) * probePeriod, so wear-out faults (onset
     * mid-run) are caught within one period.
     */
    std::uint64_t probePeriod = 16;

    /**
     * Suspect fraction at or above which remapping is hopeless and
     * the plan switches to Bypass.
     */
    double bypassSuspectFraction = 0.5;

    unsigned adcBoostBits = 2;     ///< extra ADC bits when remapped
};

/** The per-epoch decision. */
struct DegradePlan {
    DegradeMode mode = DegradeMode::Normal;

    /** Logical->physical map for Remap (empty otherwise). */
    std::vector<std::size_t> columnMap;

    /** ADC resolution to program for Remap (0 = leave unchanged). */
    unsigned adcBits = 0;

    /** The suspects the plan routes around (diagnostic). */
    std::vector<std::size_t> suspectColumns;

    /** One-line summary. */
    std::string str() const;
};

/**
 * Decide how to serve the array described by @p probe. Pure function
 * of its arguments (see file header).
 */
DegradePlan planDegradation(const ProbeReport &probe,
                            const arch::ColumnArrayConfig
                                &array_config,
                            const DegradationPolicyConfig &config);

/**
 * Content address of the plan for @p epoch under the given array and
 * policy operating point (core/structural_hash.hh): the plan is a
 * pure function of these inputs plus the (shared, immutable) fault
 * model, so equal keys within one pipeline imply equal plans.
 */
std::uint64_t degradePlanKey(std::uint64_t epoch,
                             const arch::ColumnArrayConfig
                                 &array_config,
                             const DegradationPolicyConfig &config);

/** Plans by degradePlanKey(), shared by a pipeline's device workers
 * (VisionConfig::planCache) and by a fleet's DevicePool. */
using DegradePlanCache = ContentCache<DegradePlan>;

} // namespace stream
} // namespace redeye

#endif // REDEYE_STREAM_DEGRADE_HH
