/**
 * @file
 * RedEyeDevice: functional whole-partition execution.
 *
 * Drives the ColumnArray through every analog layer of a partitioned
 * network — convolutions (with folded ReLU), max pooling, LRN (weight
 * renormalization with module noise), concat routing — and exports
 * the quantized cut tensor, exactly what the host would retrieve from
 * the feature SRAM. Collects the realized energy breakdown alongside.
 *
 * Fault campaigns (src/fault) arm through armFaults(); with none
 * armed, execution is bit-identical to pristine silicon. tryRun()
 * surfaces malformed partitions as a typed core::Status instead of
 * exiting, so a serving runtime can fail one frame and keep going.
 */

#ifndef REDEYE_REDEYE_DEVICE_HH
#define REDEYE_REDEYE_DEVICE_HH

#include <map>
#include <string>
#include <vector>

#include "core/status.hh"
#include "redeye/column.hh"

namespace redeye {

namespace nn {
class Network;
}

namespace arch {

/** Result of a functional frame execution. */
struct DeviceRun {
    Tensor features;      ///< quantized cut tensor (value domain)
    EnergyBreakdown energy;
    /** Comparator decisions the timeout forced during this run, in
     * max pooling and SAR readout. */
    std::size_t forcedDecisions = 0;
    std::vector<std::string> executedLayers;
};

/** Functional RedEye device. */
class RedEyeDevice
{
  public:
    RedEyeDevice(ColumnArrayConfig config,
                 analog::ProcessParams process, Rng rng);

    /**
     * Execute the analog prefix @p analog_layers of @p net on the
     * single-frame tensor @p input (1, C, H, W), returning the
     * quantized features crossing the A/D boundary, or an
     * InvalidArgument status when the partition is malformed (empty,
     * unknown layers, out-of-partition consumers, unsupported layer
     * kinds, batched input).
     */
    StatusOr<DeviceRun> tryRun(nn::Network &net,
                               const std::vector<std::string>
                                   &analog_layers,
                               const Tensor &input);

    /** Like tryRun(), but a malformed partition is fatal. */
    DeviceRun run(nn::Network &net,
                  const std::vector<std::string> &analog_layers,
                  const Tensor &input);

    /**
     * Arm a fault campaign for subsequent runs (nullptr disarms);
     * @p frame selects which faults have onset. See
     * ColumnArray::armFaults.
     */
    void
    armFaults(const fault::FaultModel *faults, std::uint64_t frame = 0)
    {
        array_.armFaults(faults, frame);
    }

    ColumnArray &array() { return array_; }

  private:
    ColumnArray array_;
    Rng rng_;
};

} // namespace arch
} // namespace redeye

#endif // REDEYE_REDEYE_DEVICE_HH
