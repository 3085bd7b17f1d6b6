/**
 * @file
 * Calibration probe: detect degraded columns at runtime.
 *
 * The serving runtime cannot see the fault model — real silicon does
 * not announce which capacitor died. What it can do is periodically
 * push a *known* test vector through the array and compare each
 * column's answer against the pristine expectation. The probe runs a
 * full-swing ramp through a unit-weight convolution (exercising the
 * buffered-sample path, the MAC weight bank and the output stage), a
 * small max-pool window (exercising the comparators) and the SAR
 * readout, and flags every column whose error exceeds a fixed
 * threshold: 2% of the probe signal's full scale.
 *
 * The comparison trick: the reference array and the probed array are
 * seeded identically, and the conv engine keys each output's noise to
 * its index, so both arrays realize the *same* noise on healthy
 * columns. Both ADC banks convert the reference's conv output, so
 * the readout's scaling (its input's peak) is shared too. The
 * per-column difference is therefore exactly the fault contribution
 * — the probe needs no averaging and detects faults well below the
 * noise floor.
 */

#ifndef REDEYE_STREAM_PROBE_HH
#define REDEYE_STREAM_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_model.hh"
#include "redeye/column.hh"

namespace redeye {
namespace stream {

/** What the probe measured. */
struct ProbeReport {
    /** Per-physical-column relative error vs the pristine reference. */
    std::vector<double> columnError;

    /** Columns whose error exceeded the threshold, ascending. */
    std::vector<std::size_t> suspectColumns;

    bool anySuspect() const { return !suspectColumns.empty(); }

    /** One-line summary. */
    std::string str() const;
};

/**
 * Probe an array built from @p array_config with @p faults armed at
 * frame @p frame (nullptr probes pristine silicon and reports no
 * suspects). Pure function of its arguments — every caller computes
 * the identical report, which is what lets independent pipeline
 * workers agree on a degradation plan without shared state.
 */
ProbeReport runCalibrationProbe(const arch::ColumnArrayConfig
                                    &array_config,
                                const fault::FaultModel *faults,
                                std::uint64_t frame);

} // namespace stream
} // namespace redeye

#endif // REDEYE_STREAM_PROBE_HH
