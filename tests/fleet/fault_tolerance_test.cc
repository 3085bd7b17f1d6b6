/**
 * @file
 * Tests for the fleet fault-tolerance layer: chaos-schedule
 * terminality, quarantine/recovery/retire lifecycle, error-threshold
 * detection, retry/hedge accounting and its session -> class ->
 * fleet aggregation, the retry-attempt bound, brownout band,
 * probe-period and chaos-target checks, brownout shedding, and the
 * determinism of all of it.
 */

#include <array>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "fleet/engine.hh"

namespace redeye {
namespace fleet {
namespace {

/**
 * A small fault-tolerant fleet under a scripted chaos schedule: half
 * the pool is killed at t=0.33s — deliberately off the 0.25s sweep
 * grid, so serve failures really happen before a sweep can react —
 * and one victim recovers at t=1.2s.
 */
FleetConfig
chaosFleet()
{
    FleetConfig c;
    c.sessions = 32;
    c.framesPerSession = 10;
    c.sessionRateHz = 5.0;
    c.pool.devices = 4;
    c.pool.hostWorkers = 8;
    c.queueCapacity = 32;
    c.seed = 0xc4a05;
    c.ft.enabled = true;
    c.ft.probePeriodS = 0.25;
    c.windowS = 0.5;

    ChaosEvent kill;
    kill.timeS = 0.33;
    kill.kind = ChaosEvent::Kind::Kill;
    kill.deadFraction = 0.9;
    kill.device = 0;
    c.chaos.push_back(kill);
    kill.device = 1;
    c.chaos.push_back(kill);

    ChaosEvent recover;
    recover.timeS = 1.2;
    recover.kind = ChaosEvent::Kind::Recover;
    recover.device = 0;
    c.chaos.push_back(recover);
    return c;
}

/** Every ServeCounts field, so aggregation is checked field by field
 * rather than through ServeCounts::operator+= itself. */
constexpr std::array<std::uint64_t ServeCounts::*, 14> kServeCountFields =
    {&ServeCounts::offered,         &ServeCounts::admitted,
     &ServeCounts::dropped,         &ServeCounts::shed,
     &ServeCounts::completed,       &ServeCounts::sloViolations,
     &ServeCounts::shedDeadline,    &ServeCounts::shedUnavailable,
     &ServeCounts::shedResource,    &ServeCounts::shedBrownout,
     &ServeCounts::retries,         &ServeCounts::hedges,
     &ServeCounts::hedgeWins,       &ServeCounts::degraded};
static_assert(sizeof(ServeCounts) ==
                  kServeCountFields.size() * sizeof(std::uint64_t),
              "a ServeCounts field is missing from kServeCountFields");

/** Every counter of a class is the sum over that class's sessions,
 * and every fleet counter the sum over classes. */
void
expectCountsAggregate(const FleetEngine &engine, const FleetReport &r)
{
    std::array<std::array<std::uint64_t, kServeCountFields.size()>,
               kTrafficClasses>
        session_sums{};
    engine.sessions().forEach([&](const Session &s) {
        for (std::size_t f = 0; f < kServeCountFields.size(); ++f)
            session_sums[classIndex(s.cls)][f] +=
                s.stats.*kServeCountFields[f];
    });
    for (std::size_t f = 0; f < kServeCountFields.size(); ++f) {
        std::uint64_t class_sum = 0;
        for (std::size_t c = 0; c < kTrafficClasses; ++c) {
            EXPECT_EQ(r.classes[c].*kServeCountFields[f],
                      session_sums[c][f])
                << "class " << c << " field " << f;
            class_sum += r.classes[c].*kServeCountFields[f];
        }
        EXPECT_EQ(r.*kServeCountFields[f], class_sum) << "field " << f;
    }
}

TEST(FaultToleranceTest, LayerOffReportsZeroFtActivity)
{
    FleetConfig cfg = chaosFleet();
    cfg.ft.enabled = false;
    cfg.chaos.clear();
    cfg.windowS = 0.0;
    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    EXPECT_EQ(r.retries, 0u);
    EXPECT_EQ(r.hedges, 0u);
    EXPECT_EQ(r.attemptTimeouts, 0u);
    EXPECT_EQ(r.probeSweeps, 0u);
    EXPECT_EQ(r.quarantines, 0u);
    EXPECT_EQ(r.recoveries, 0u);
    EXPECT_EQ(r.shedDeadline + r.shedUnavailable + r.shedBrownout,
              0u);
    EXPECT_EQ(r.finalBrownoutLevel, 0);
    EXPECT_TRUE(r.windows.empty());
    EXPECT_EQ(r.offered, r.admitted + r.dropped);
    EXPECT_EQ(r.admitted, r.completed + r.shed);
}

TEST(FaultToleranceTest, ChaosScheduleConservesEveryRequest)
{
    FleetEngine engine(chaosFleet());
    const FleetReport r = engine.run();

    // Terminality: every offered frame is decided, every admitted
    // frame resolved, every shed attributed to exactly one cause.
    EXPECT_EQ(r.offered, r.admitted + r.dropped);
    EXPECT_EQ(r.admitted, r.completed + r.shed);
    EXPECT_EQ(r.shed, r.shedDeadline + r.shedUnavailable +
                          r.shedResource + r.shedBrownout);
    for (const ClassReport &c : r.classes) {
        EXPECT_EQ(c.offered, c.admitted + c.dropped);
        EXPECT_EQ(c.admitted, c.completed + c.shed);
        EXPECT_EQ(c.shed, c.shedDeadline + c.shedUnavailable +
                              c.shedResource + c.shedBrownout);
    }

    // The schedule really ran, and detection really engaged: the
    // off-grid kill forces serve failures, so attempts retried on
    // other devices and both victims entered quarantine.
    EXPECT_EQ(r.chaosKills, 2u);
    EXPECT_EQ(r.chaosRecovers, 1u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GE(r.quarantines, 2u);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_GT(r.probeSweeps, 0u);

    // Nothing was lost to the chaos: the fleet still served nearly
    // everything (only the killed devices' in-flight window sheds).
    EXPECT_GT(r.completed, r.offered * 9 / 10);

    // Window accounting covers the whole run: per-class window sums
    // equal the class totals.
    ASSERT_FALSE(r.windows.empty());
    for (std::size_t c = 0; c < kTrafficClasses; ++c) {
        std::uint64_t done = 0, shed = 0;
        for (const FleetWindow &w : r.windows) {
            done += w.completed[c];
            shed += w.shed[c];
        }
        EXPECT_EQ(done, r.classes[c].completed);
        EXPECT_EQ(shed, r.classes[c].shed);
    }
    for (std::size_t i = 1; i < r.windows.size(); ++i)
        EXPECT_GT(r.windows[i].startS, r.windows[i - 1].startS);

    expectCountsAggregate(engine, r);
}

TEST(FaultToleranceTest, InteractiveHoldsSloThroughChaos)
{
    FleetEngine engine(chaosFleet());
    const FleetReport r = engine.run();

    // The acceptance bar: INTERACTIVE SLO attainment >= 99% in every
    // window *throughout* the chaos schedule, not just end to end.
    const std::size_t interactive =
        classIndex(TrafficClass::Interactive);
    ASSERT_FALSE(r.windows.empty());
    for (std::size_t i = 0; i < r.windows.size(); ++i)
        EXPECT_GE(r.windows[i].sloAttainment(interactive), 0.99)
            << "window " << i;
    EXPECT_GE(r.classes[interactive].sloAttainment, 0.99);
}

TEST(FaultToleranceTest, DeterministicAcrossRunsUnderChaos)
{
    const FleetConfig cfg = chaosFleet();
    FleetEngine first(cfg);
    FleetEngine second(cfg);
    const FleetReport a = first.run();
    const FleetReport b = second.run();

    EXPECT_DOUBLE_EQ(a.makespanS, b.makespanS);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.hedges, b.hedges);
    EXPECT_EQ(a.hedgeWins, b.hedgeWins);
    EXPECT_EQ(a.attemptTimeouts, b.attemptTimeouts);
    EXPECT_EQ(a.quarantines, b.quarantines);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.shedUnavailable, b.shedUnavailable);
    EXPECT_EQ(a.shedResource, b.shedResource);
    EXPECT_EQ(a.shedBrownout, b.shedBrownout);

    // The retry/hedge/backoff schedule is bit-reproducible: the
    // whole per-window trace matches, not just the totals.
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.windows[i].startS, b.windows[i].startS);
        EXPECT_EQ(a.windows[i].completed, b.windows[i].completed);
        EXPECT_EQ(a.windows[i].shed, b.windows[i].shed);
        EXPECT_EQ(a.windows[i].retries, b.windows[i].retries);
        EXPECT_EQ(a.windows[i].hedges, b.windows[i].hedges);
        EXPECT_EQ(a.windows[i].activeDevicesMin,
                  b.windows[i].activeDevicesMin);
        EXPECT_EQ(a.windows[i].brownoutLevel,
                  b.windows[i].brownoutLevel);
    }
}

TEST(FaultToleranceTest, ErrorThresholdQuarantinesWithoutSweeps)
{
    // Sweeps off: the only detector left is the per-device
    // serve-error threshold, and it must be enough to quarantine a
    // killed device and retry its victims elsewhere.
    FleetConfig cfg = chaosFleet();
    cfg.ft.probePeriodS = 0.0;
    cfg.chaos.resize(1); // one kill, no recover
    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    EXPECT_EQ(r.probeSweeps, 0u);
    EXPECT_GE(r.quarantines, 1u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_EQ(r.offered, r.admitted + r.dropped);
    EXPECT_EQ(r.admitted, r.completed + r.shed);
}

TEST(FaultToleranceTest, RecoveredDeviceReturnsToNormalService)
{
    // Kill one device, let chaos heal it mid-run: quarantine must
    // drain and re-admit it, and once a sweep sees a clean probe on
    // its degraded plan the device serves Normal again.
    FleetConfig cfg = chaosFleet();
    cfg.framesPerSession = 20; // run long enough to re-plan
    cfg.chaos.clear();
    ChaosEvent kill;
    kill.timeS = 0.33;
    kill.kind = ChaosEvent::Kind::Kill;
    kill.device = 0;
    cfg.chaos.push_back(kill);
    ChaosEvent recover;
    recover.timeS = 0.8;
    recover.kind = ChaosEvent::Kind::Recover;
    recover.device = 0;
    cfg.chaos.push_back(recover);

    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    EXPECT_GE(r.quarantines, 1u);
    EXPECT_GE(r.recoveries, 1u);
    EXPECT_EQ(r.devicesQuarantined, 0u);
    EXPECT_EQ(r.devicesRetired, 0u);
    EXPECT_EQ(r.devicesActive, cfg.pool.devices);
    EXPECT_EQ(r.devicesNormal, cfg.pool.devices)
        << "healed silicon must shed its degraded plan";
    EXPECT_EQ(r.completed + r.shed, r.admitted);
}

TEST(FaultToleranceTest, HedgingIsInteractiveOnlyFirstWins)
{
    FleetEngine engine(chaosFleet());
    const FleetReport r = engine.run();

    const ClassReport &interactive =
        r.classes[classIndex(TrafficClass::Interactive)];
    const ClassReport &background =
        r.classes[classIndex(TrafficClass::Background)];
    const ClassReport &best_effort =
        r.classes[classIndex(TrafficClass::BestEffort)];

    // Only INTERACTIVE hedges in the default QoS table, and a win
    // presupposes a fired hedge.
    EXPECT_GT(interactive.hedges, 0u);
    EXPECT_EQ(background.hedges, 0u);
    EXPECT_EQ(best_effort.hedges, 0u);
    EXPECT_LE(interactive.hedgeWins, interactive.hedges);
    EXPECT_EQ(r.hedges, interactive.hedges);
}

TEST(FaultToleranceTest, BrownoutShedsScavengersProtectsInteractive)
{
    // Force the controller's hand: any demand at all exceeds the
    // high-water ratio, so the first sweep escalates to level 1
    // (shed BEST_EFFORT arrivals) and the second to level 2 (force
    // BACKGROUND to bypass). A zero low-water keeps it there.
    FleetConfig cfg = chaosFleet();
    cfg.chaos.clear();
    cfg.sessions = 24;
    cfg.sessionRateHz = 10.0;
    cfg.ft.probePeriodS = 0.1;
    cfg.ft.brownoutHigh = 1e-6;
    cfg.ft.brownoutLow = 0.0;

    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    const ClassReport &interactive =
        r.classes[classIndex(TrafficClass::Interactive)];
    const ClassReport &background =
        r.classes[classIndex(TrafficClass::Background)];
    const ClassReport &best_effort =
        r.classes[classIndex(TrafficClass::BestEffort)];

    EXPECT_EQ(r.finalBrownoutLevel, 2);
    EXPECT_EQ(r.brownoutEscalations, 2u);

    // Scavenger arrivals after the first escalation shed with the
    // brownout cause; BACKGROUND keeps completing but on the bypass
    // path; INTERACTIVE is never touched by either lever.
    EXPECT_GT(best_effort.shedBrownout, 0u);
    EXPECT_GT(background.degraded, 0u);
    EXPECT_EQ(interactive.shedBrownout, 0u);
    EXPECT_EQ(interactive.degraded, 0u);
    EXPECT_GT(interactive.completed, 0u);

    // Conservation holds through brownout accounting too.
    EXPECT_EQ(r.admitted, r.completed + r.shed);
    EXPECT_EQ(r.shed, r.shedDeadline + r.shedUnavailable +
                          r.shedResource + r.shedBrownout);
    expectCountsAggregate(engine, r);
}

TEST(FaultToleranceTest, RejectsMaxAttemptsOutsideOneToFour)
{
    // Failure draws are keyed 8 * frame + 2 * attempt + leg: a fifth
    // attempt of frame f would replay the first draw of frame f + 1.
    FleetConfig cfg = chaosFleet();
    cfg.qos[classIndex(TrafficClass::BestEffort)].maxAttempts = 5;
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "maxAttempts");
    cfg.qos[classIndex(TrafficClass::BestEffort)].maxAttempts = 0;
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "maxAttempts");
}

TEST(FaultToleranceTest, RejectsBrownoutLowAtOrAboveHigh)
{
    // An inverted band flips the level 2 -> 1 -> 2 on every sweep
    // whenever demand sits between the two ratios.
    FleetConfig cfg = chaosFleet();
    cfg.ft.brownoutHigh = 0.5;
    cfg.ft.brownoutLow = 0.8;
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "brownoutLow.*brownoutHigh");
    cfg.ft.brownoutLow = 0.5;
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "brownoutLow.*brownoutHigh");
}

TEST(FaultToleranceTest, RejectsNegativeProbePeriod)
{
    // A negative or NaN period would silently turn sweeps off, and
    // with them quarantine-by-probe and brownout control; +inf would
    // schedule a sweep at t = inf and cast it to a window index.
    FleetConfig cfg = chaosFleet();
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        cfg.ft.probePeriodS = bad;
        EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                    "ft.probePeriodS")
            << bad;
    }
}

TEST(FaultToleranceTest, SweepPastTheWindowTableLandsInTheLastWindow)
{
    // A period longer than the run schedules one sweep, which runs
    // once the work has drained, far past the window table. The 2 s
    // run (10 frames at 5 Hz) of 0.5 s windows has a table of 8 x 4
    // + 8 windows, and the sweep reaches the last.
    FleetConfig cfg = chaosFleet();
    cfg.ft.probePeriodS = 1e300;
    FleetEngine engine(cfg);
    const FleetReport r = engine.run();
    EXPECT_EQ(r.probeSweeps, 1u);
    EXPECT_EQ(r.windows.size(), 40u);
}

TEST(FaultToleranceTest, RejectsChaosTargetOutsidePool)
{
    // Caught at construction, not when run() reaches the schedule.
    FleetConfig cfg = chaosFleet();
    cfg.chaos[1].device = cfg.pool.devices;
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "chaos\\[1\\]\\.device");
}

TEST(FaultToleranceTest, DeviceKilledOutrightIsRetired)
{
    // Every column of device 0 dies and nothing recovers it: once
    // quarantined, its reprobe flags a suspect fraction of 1, past
    // the retire threshold, and the device leaves service for good.
    FleetConfig cfg = chaosFleet();
    cfg.chaos.resize(1);
    cfg.chaos[0].deadFraction = 1.0;

    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    EXPECT_GE(r.quarantines, 1u);
    EXPECT_EQ(r.devicesRetired, 1u);
    EXPECT_EQ(r.devicesQuarantined, 0u);
    EXPECT_EQ(r.devicesActive, cfg.pool.devices - 1);
    EXPECT_EQ(engine.pool().device(0).lifecycle,
              DeviceLifecycle::Retired);
    EXPECT_EQ(r.recoveries, 0u);

    EXPECT_EQ(r.offered, r.admitted + r.dropped);
    EXPECT_EQ(r.admitted, r.completed + r.shed);
    EXPECT_EQ(r.shed, r.shedDeadline + r.shedUnavailable +
                          r.shedResource + r.shedBrownout);
    expectCountsAggregate(engine, r);
}

TEST(FaultToleranceTest, OnsetHorizonFaultsAreCaughtMidRun)
{
    // No chaos script: the devices themselves wear out, on their own
    // served-frame clocks, via the pool's onset-horizon fault draw.
    // Every device is drawn faulty because only devices that *serve*
    // age — healthiest-first leasing keeps high-index devices idle,
    // and an idle device's onset clock never advances.
    FleetConfig cfg = chaosFleet();
    cfg.chaos.clear();
    cfg.framesPerSession = 20;
    cfg.pool.faultyFraction = 1.0;
    cfg.pool.faultyDeadColumns = 0.5;
    cfg.pool.onsetHorizonFrames = 40;

    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    // The wear-out was detected at serve time: the busiest device
    // aged past its onsets, was quarantined, and the final census
    // shows degraded (or quarantined) devices.
    EXPECT_GE(r.quarantines, 1u);
    EXPECT_LT(r.devicesNormal, cfg.pool.devices);
    EXPECT_EQ(r.offered, r.admitted + r.dropped);
    EXPECT_EQ(r.admitted, r.completed + r.shed);
}

} // namespace
} // namespace fleet
} // namespace redeye
