/** @file Tests for the calibration probe. */

#include <gtest/gtest.h>

#include "fault/fault_model.hh"
#include "stream/probe.hh"

namespace redeye {
namespace stream {
namespace {

constexpr std::size_t kColumns = 16;

arch::ColumnArrayConfig
makeConfig()
{
    arch::ColumnArrayConfig cfg;
    cfg.columns = kColumns;
    cfg.convSnrDb = 40.0;
    cfg.adcBits = 4;
    return cfg;
}

/**
 * A campaign realizing exactly one dead column at kColumns width
 * (scans seeds; the realization is deterministic per seed).
 */
fault::FaultCampaign
oneDeadColumn(std::size_t &dead_col)
{
    fault::FaultCampaign c = fault::FaultCampaign::deadColumns(0.05);
    for (std::uint64_t seed = 1; seed < 200; ++seed) {
        c.seed = seed;
        fault::FaultModel m(c, kColumns);
        if (m.deadColumnCount() == 1) {
            for (std::size_t i = 0; i < kColumns; ++i) {
                if (m.column(i).dead)
                    dead_col = i;
            }
            return c;
        }
    }
    ADD_FAILURE() << "no seed yields exactly one dead column";
    return c;
}

TEST(ProbeTest, PristineSiliconHasNoSuspects)
{
    const ProbeReport r =
        runCalibrationProbe(makeConfig(), nullptr, 0);
    ASSERT_EQ(r.columnError.size(), kColumns);
    EXPECT_FALSE(r.anySuspect());
    for (double e : r.columnError)
        EXPECT_LT(e, 0.02) << r.str();
}

TEST(ProbeTest, EmptyCampaignHasNoSuspects)
{
    fault::FaultModel empty(fault::FaultCampaign{}, kColumns);
    const ProbeReport r =
        runCalibrationProbe(makeConfig(), &empty, 0);
    EXPECT_FALSE(r.anySuspect()) << r.str();
}

TEST(ProbeTest, DeadColumnIsFlagged)
{
    std::size_t dead_col = kColumns;
    const fault::FaultCampaign c = oneDeadColumn(dead_col);
    ASSERT_LT(dead_col, kColumns);
    fault::FaultModel model(c, kColumns);

    const ProbeReport r =
        runCalibrationProbe(makeConfig(), &model, 0);
    ASSERT_EQ(r.suspectColumns.size(), 1u) << r.str();
    EXPECT_EQ(r.suspectColumns[0], dead_col);
    EXPECT_GT(r.columnError[dead_col], 0.02);
}

TEST(ProbeTest, ReportIsDeterministic)
{
    std::size_t dead_col = kColumns;
    const fault::FaultCampaign c = oneDeadColumn(dead_col);
    fault::FaultModel model(c, kColumns);

    const ProbeReport a =
        runCalibrationProbe(makeConfig(), &model, 0);
    const ProbeReport b =
        runCalibrationProbe(makeConfig(), &model, 0);
    ASSERT_EQ(a.columnError.size(), b.columnError.size());
    for (std::size_t i = 0; i < a.columnError.size(); ++i)
        EXPECT_EQ(a.columnError[i], b.columnError[i]);
    EXPECT_EQ(a.suspectColumns, b.suspectColumns);
}

TEST(ProbeTest, OnsetGatesDetection)
{
    // Every fault onsets strictly after frame 0; the probe at frame 0
    // sees pristine silicon, a probe past the last onset sees the
    // faults.
    fault::FaultCampaign c;
    c.deadColumnRate = 1.0;
    c.onsetHorizon = 1000000;
    fault::FaultModel model(c, kColumns);

    std::uint64_t last_onset = 0;
    bool all_late = true;
    for (std::size_t i = 0; i < kColumns; ++i) {
        last_onset = std::max(last_onset, model.column(i).onset);
        all_late &= model.column(i).onset > 0;
    }
    ASSERT_GT(last_onset, 0u);

    if (all_late) {
        const ProbeReport before =
            runCalibrationProbe(makeConfig(), &model, 0);
        EXPECT_FALSE(before.anySuspect()) << before.str();
    }
    const ProbeReport after =
        runCalibrationProbe(makeConfig(), &model, last_onset);
    EXPECT_EQ(after.suspectColumns.size(), kColumns) << after.str();
}

} // namespace
} // namespace stream
} // namespace redeye
