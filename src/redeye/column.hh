/**
 * @file
 * Column-parallel functional execution engine.
 *
 * The structural counterpart of the analytic energy model: a
 * ColumnArray instantiates per-column module circuits (buffer cells,
 * MAC, comparator, SAR ADC from src/analog) and routes real signal
 * values through them, one output row per timestep, with every
 * circuit-level noise and energy mechanism engaged. Output x
 * positions map onto columns; horizontally adjacent columns bridge
 * their buffered samples for kernel windows (Section III-B3).
 *
 * Used for bit-level validation (does the analog pipeline compute
 * the ConvNet?) and for measuring realized SNR against the
 * noise-layer abstraction.
 *
 * Each stage has two engines. The *Reference() oracles replay every
 * tap and every comparator decision through the circuit models, one
 * random draw at a time. The served engines realize the same output
 * distribution in closed form (DESIGN.md §15): for convolution, GEMMs
 * give each output's noiseless charge and its noise variance, and one
 * counter-keyed Gaussian per output supplies the noise; max pooling
 * and SAR readout decide on noiseless margins and draw keyed noise
 * only for decisions it can change. The served engines step each
 * output row in SIMD lanes, one lane per output column, as the
 * array's columns step together (core/lanes.hh).
 */

#ifndef REDEYE_REDEYE_COLUMN_HH
#define REDEYE_REDEYE_COLUMN_HH

#include <memory>
#include <vector>

#include "analog/comparator.hh"
#include "analog/mac_unit.hh"
#include "analog/memory_cell.hh"
#include "analog/sar_adc.hh"
#include "core/rng.hh"
#include "fault/fault_model.hh"
#include "nn/conv.hh"
#include "nn/pool.hh"
#include "redeye/energy_model.hh"
#include "tensor/tensor.hh"

namespace redeye {
namespace arch {

/** Static configuration of the functional array. */
struct ColumnArrayConfig {
    std::size_t columns = 32;
    double convSnrDb = 40.0;
    unsigned weightBits = 8;
    unsigned adcBits = 4;
};

/** Column-parallel mixed-signal execution engine. */
class ColumnArray
{
  public:
    ColumnArray(ColumnArrayConfig config,
                analog::ProcessParams process, Rng rng);

    /**
     * Execute a convolution layer's arithmetic through the MAC
     * circuits. @p in is a single-item (1, C, H, W) tensor in value
     * domain; kernel weights are quantized to the array's digital
     * weight resolution on the fly.
     *
     * The closed-form engine: each output is its noiseless charge
     * plus one Gaussian of the variance the per-tap circuits would
     * accumulate, drawn from a stream keyed by this call's base
     * (one draw from the array's Rng) and the output's (oc, oy, ox).
     * Energy is charged from the same operation counts as the
     * per-tap engine.
     *
     * @param rectify Clip outputs at the rectified signal range
     * (the folded ReLU).
     */
    Tensor runConvolution(const Tensor &in,
                          nn::ConvolutionLayer &layer, bool rectify);

    /**
     * The per-tap engine: every buffer write/read and MAC tap runs
     * through its circuit model with its own random draws. Same
     * output distribution and energy as runConvolution(), orders of
     * magnitude slower; kept as the test oracle the closed form is
     * checked against.
     */
    Tensor runConvolutionReference(const Tensor &in,
                                   nn::ConvolutionLayer &layer,
                                   bool rectify);

    /**
     * Execute max pooling through the comparator circuits, in closed
     * form: each window decision is keyed by this call's base (one
     * draw from the array's Rng) and (output index, decision
     * ordinal), and draws noise only within the comparator's band
     * (analog::DecisionLanes, one output column per lane). Energy and
     * forced counts are charged to each output's serving comparator.
     */
    Tensor runMaxPool(const Tensor &in, const nn::MaxPoolLayer &layer);

    /**
     * The per-decision engine: every comparison draws its own noise
     * from the array's Rng. Kept as the test oracle runMaxPool() is
     * checked against.
     */
    Tensor runMaxPoolReference(const Tensor &in,
                               const nn::MaxPoolLayer &layer);

    /**
     * Quantize through the per-column SAR ADCs and reconstruct to
     * value domain (what the host receives after bit alignment). In
     * closed form: each column searches its elements' codes on its
     * ADC's thresholds, one column per lane of analog::DecisionLanes,
     * under this call's base (one draw from the array's Rng).
     */
    Tensor runQuantization(const Tensor &in);

    /**
     * The per-conversion engine: every bit decision draws its own
     * noise from the array's Rng. Kept as the test oracle
     * runQuantization() is checked against.
     */
    Tensor runQuantizationReference(const Tensor &in);

    /** Reprogram the noise admission of the conv modules. */
    void setConvSnrDb(double snr_db);

    /** Reprogram the ADC resolution. */
    void setAdcBits(unsigned bits);

    /**
     * Arm a fault campaign: every subsequent run consults @p faults
     * (one entry per physical column, so the model's column count
     * must match the array's) for faults active at frame index
     * @p frame. Passing nullptr disarms. With no model armed the
     * execution path is bit-identical to pristine silicon — the
     * fault hooks neither draw randomness nor alter any value.
     */
    void armFaults(const fault::FaultModel *faults,
                   std::uint64_t frame = 0);

    /** Armed fault model (nullptr when pristine). */
    const fault::FaultModel *faults() const { return faults_; }

    /**
     * Remap logical output positions onto physical columns: position
     * x is served by column map[x % map.size()] instead of
     * x % columns. The degradation policy uses this to steer work
     * (MACs, buffered samples, comparisons, conversions) off columns
     * the calibration probe flagged dead. An empty map restores the
     * identity mapping.
     */
    void setColumnMap(std::vector<std::size_t> map);

    const std::vector<std::size_t> &columnMap() const { return map_; }

    /** Accrued energy by category since the last reset. */
    EnergyBreakdown energy() const;

    /** Zero the accrued energy and the forced-decision count. */
    void resetEnergy();

    /**
     * Comparator decisions forced by the metastability timeout since
     * the last resetEnergy(): max-pooling comparisons and SAR bit
     * decisions.
     */
    std::size_t forcedDecisions() const;

    const ColumnArrayConfig &config() const { return config_; }

  private:
    /** The scalar closed forms the lane kernels are tested against. */
    friend struct ColumnOracle;

    /** Per-column circuit instances. */
    struct Column {
        Column(const ColumnArrayConfig &config,
               const analog::ProcessParams &process, Rng &rng);

        analog::MacUnit mac;
        analog::AnalogMemoryCell buffer;
        analog::DynamicComparator comparator;
        analog::SarAdc adc;
    };

    /** Physical column serving logical position @p x. */
    std::size_t
    physicalFor(std::size_t x) const
    {
        return map_.empty() ? x % cols_.size() : map_[x % map_.size()];
    }

    /**
     * Faults of physical column @p physical active at the armed
     * frame, or nullptr when pristine (or not yet onset).
     */
    const fault::ColumnFaults *activeFaults(std::size_t physical) const;

    ColumnArrayConfig config_;
    analog::ProcessParams process_;
    Rng rng_;
    std::vector<Column> cols_;
    std::vector<std::size_t> map_; ///< logical->physical (empty = id)
    const fault::FaultModel *faults_ = nullptr;
    std::uint64_t faultFrame_ = 0;
};

} // namespace arch
} // namespace redeye

#endif // REDEYE_REDEYE_COLUMN_HH
