#include "stream/probe.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "nn/conv.hh"
#include "nn/pool.hh"

namespace redeye {
namespace stream {

namespace {

/** Noise seed shared by the reference and the probed array. */
constexpr std::uint64_t kProbeSeed = 0x9a0be;

/** Relative per-column error above which a column is a suspect;
 * errors are normalized by the probe signal's full scale. */
constexpr double kSuspectThreshold = 0.02;

/**
 * The known test vector: an ascending ramp across the columns on row
 * 0 and the mirrored, descending ramp on row 1 (two rows make the
 * 2x2 max-pool window legal). A railed column reads near the ramp
 * maximum, which matches the expected value at one end of one ramp —
 * but never of both, so every dead column shows a large error on at
 * least one row. Within a pool window adjacent candidates differ by
 * one ramp step, so a comparator offset that flips the decision
 * produces a full-step error — detectable above the aligned-noise
 * floor.
 */
Tensor
probeRamp(std::size_t columns)
{
    Tensor ramp(Shape(1, 1, 2, columns));
    for (std::size_t x = 0; x < columns; ++x) {
        const auto v = static_cast<float>(
            0.1 + 0.8 * static_cast<double>(x) /
                      static_cast<double>(std::max<std::size_t>(
                          1, columns - 1)));
        ramp.at(0, 0, 0, x) = v;
        ramp.at(0, 0, 1, columns - 1 - x) = v;
    }
    return ramp;
}

/** What the probe workload produced on one array. */
struct ProbeOutputs {
    Tensor conv;    ///< unit-weight conv, one value per column and row
    Tensor readout; ///< the reference's conv output through the ADCs
    Tensor pooled;  ///< 2-wide max pool, comparator decisions
};

} // namespace

std::string
ProbeReport::str() const
{
    std::ostringstream oss;
    oss << "probe: " << suspectColumns.size() << "/"
        << columnError.size() << " suspect columns [";
    for (std::size_t i = 0; i < suspectColumns.size(); ++i)
        oss << (i ? " " : "") << suspectColumns[i];
    oss << "]";
    return oss.str();
}

ProbeReport
runCalibrationProbe(const arch::ColumnArrayConfig &array_config,
                    const fault::FaultModel *faults,
                    std::uint64_t frame)
{
    const std::size_t columns = array_config.columns;

    const Tensor ramp = probeRamp(columns);

    // Unit-weight 1x1 convolution: output x == input x, per column.
    nn::ConvParams conv_params = nn::ConvParams::square(1, 1);
    conv_params.bias = false;
    nn::ConvolutionLayer conv("probe/conv", conv_params);
    conv.outputShape({ramp.shape()}); // materialize the weights
    conv.weights() = Tensor(conv.weights().shape(), 1.0f);

    nn::MaxPoolLayer pool("probe/pool", nn::PoolParams{2, 1, 0});

    // Identically seeded arrays realize identical noise: the conv,
    // pooling and readout engines key every draw to the output's own
    // index, so a healthy column's outputs are bit-identical in both
    // and the difference below is purely the fault contribution.
    const auto process = analog::ProcessParams::typical();
    arch::ColumnArray reference(array_config, process, Rng(kProbeSeed));
    arch::ColumnArray probed(array_config, process, Rng(kProbeSeed));
    probed.armFaults(faults, frame);

    ProbeOutputs want, got;
    want.conv = reference.runConvolution(ramp, conv, true);
    got.conv = probed.runConvolution(ramp, conv, true);
    // Both ADC banks convert the same signal. The readout scales by
    // its input's peak, so converting each array's own output would
    // let a railed column shift every healthy column's codes.
    want.readout = reference.runQuantization(want.conv);
    got.readout = probed.runQuantization(want.conv);
    want.pooled = reference.runMaxPool(want.conv, pool);
    got.pooled = probed.runMaxPool(got.conv, pool);

    const double scale = std::max(
        1e-12, static_cast<double>(want.conv.absMax()));

    ProbeReport report;
    report.columnError.assign(columns, 0.0);
    for (std::size_t x = 0; x < columns; ++x) {
        for (std::size_t y = 0; y < want.conv.shape().h; ++y) {
            report.columnError[x] = std::max(
                {report.columnError[x],
                 std::abs(got.conv.at(0, 0, y, x) -
                          want.conv.at(0, 0, y, x)) /
                     scale,
                 std::abs(got.readout.at(0, 0, y, x) -
                          want.readout.at(0, 0, y, x)) /
                     scale});
        }
    }
    // Max-pool output x is served by column x's comparator (kernel 2,
    // stride 1) but draws candidates from columns x and x+1 — skip
    // windows whose inputs the conv check already flagged, so a
    // railed neighbour cannot smear onto a healthy comparator.
    for (std::size_t x = 0; x < want.pooled.shape().w; ++x) {
        if (report.columnError[x] > kSuspectThreshold ||
            report.columnError[x + 1] > kSuspectThreshold) {
            continue;
        }
        report.columnError[x] = std::max(
            report.columnError[x],
            static_cast<double>(std::abs(got.pooled.at(0, 0, 0, x) -
                                         want.pooled.at(0, 0, 0, x))) /
                scale);
    }

    for (std::size_t x = 0; x < columns; ++x) {
        if (report.columnError[x] > kSuspectThreshold)
            report.suspectColumns.push_back(x);
    }
    return report;
}

} // namespace stream
} // namespace redeye
