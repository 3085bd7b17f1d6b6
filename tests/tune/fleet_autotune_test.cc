/**
 * @file
 * Fleet-engine integration tests for the online auto-tuner: a
 * disabled tuner is a bit-identical no-op, an enabled one steps on
 * its virtual-time cadence, retunes sessions through the shared
 * caches on scene changes, composes with quarantine-driven Bypass,
 * and the whole thing stays deterministic across runs and across
 * content thread counts. An enabled tuner without a step period is
 * rejected.
 */

#include <cstdint>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "fleet/engine.hh"

namespace redeye {
namespace fleet {
namespace {

FleetConfig
baseFleet()
{
    FleetConfig c;
    c.sessions = 16;
    c.framesPerSession = 30;
    c.sessionRateHz = 10.0;
    c.pool.devices = 4;
    c.pool.hostWorkers = 8;
    c.queueCapacity = 64;
    c.seed = 0x7e57a;
    return c;
}

/** The base fleet with the tuner on and a day -> night script. */
FleetConfig
tunedFleet()
{
    FleetConfig c = baseFleet();
    c.tune.enabled = true;
    c.tune.windowS = 0.5;
    c.tune.windowFrames = 4;
    c.scenes.push_back({0.0, {2.0, 0.0}, "day"});
    c.scenes.push_back({1.5, {14.0, 0.0}, "night"});
    return c;
}

void
expectReportsEqual(const FleetReport &a, const FleetReport &b)
{
    EXPECT_DOUBLE_EQ(a.makespanS, b.makespanS);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.tuneSteps, b.tuneSteps);
    EXPECT_EQ(a.retunes, b.retunes);
    EXPECT_EQ(a.opModelCount, b.opModelCount);
    EXPECT_EQ(a.programCacheHits, b.programCacheHits);
    EXPECT_EQ(a.programCacheMisses, b.programCacheMisses);
    for (std::size_t i = 0; i < kTrafficClasses; ++i) {
        EXPECT_EQ(a.classes[i].completed, b.classes[i].completed);
        EXPECT_DOUBLE_EQ(a.classes[i].p99S, b.classes[i].p99S);
        EXPECT_DOUBLE_EQ(a.classes[i].meanSystemJ,
                         b.classes[i].meanSystemJ);
    }
}

TEST(FleetAutoTuneTest, DisabledTunerIsABitIdenticalNoOp)
{
    // The master-switch contract: scenes scripted, observation noise
    // configured — with enabled=false none of it may perturb the
    // run. The report must match a config that never mentions the
    // tuner at all.
    FleetConfig off = tunedFleet();
    off.tune.enabled = false;
    FleetEngine with_script(off);
    FleetEngine plain(baseFleet());
    const FleetReport a = with_script.run();
    const FleetReport b = plain.run();
    expectReportsEqual(a, b);
    EXPECT_EQ(a.tuneSteps, 0u);
    EXPECT_EQ(a.retunes, 0u);
    EXPECT_EQ(a.opModelCount, 0u);
}

TEST(FleetAutoTuneTest, TunerStepsOnCadenceAndRetunesOnNightfall)
{
    FleetEngine engine(tunedFleet());
    const FleetReport r = engine.run();

    // The run spans ~3 virtual seconds at a 0.5 s cadence: steps
    // really fired, and the day -> night difficulty jump forced at
    // least one session onto a new operating point.
    EXPECT_GT(r.tuneSteps, 2u);
    EXPECT_GT(r.retunes, 0u);
    EXPECT_GT(r.opModelCount, 0u);

    // The surrogate search probes compile lazily through the shared
    // cache, so the entry count exceeds the switched-to points but
    // stays bounded by the operating-point grid.
    EXPECT_GE(r.opModelCount, 1u);
    EXPECT_LE(r.opModelCount,
              static_cast<std::uint64_t>(
                  tune::enumerateGrid(tune::OperatingPointBounds())
                      .size()));

    // Serving stayed sound under retuning.
    EXPECT_EQ(r.offered, r.admitted + r.dropped);
    EXPECT_EQ(r.admitted, r.completed + r.shed);
    EXPECT_GT(r.completed, r.offered * 8 / 10);
}

TEST(FleetAutoTuneTest, DeterministicAcrossRuns)
{
    const FleetConfig cfg = tunedFleet();
    FleetEngine first(cfg);
    FleetEngine second(cfg);
    const FleetReport a = first.run();
    const FleetReport b = second.run();
    expectReportsEqual(a, b);
    EXPECT_GT(a.retunes, 0u) << "the property must be exercised";
}

TEST(FleetAutoTuneTest, DeterministicAcrossContentThreadCounts)
{
    // The feedback tap folds observations from completion events;
    // the content pass parallelizes completions over worker threads.
    // Decisions must not move with the thread count.
    FleetConfig cfg = tunedFleet();
    cfg.contentSessions = 4;
    cfg.contentBatch = 2;
    cfg.framesPerSession = 16;

    cfg.contentThreads = 1;
    FleetEngine serial(cfg);
    const FleetReport a = serial.run();

    cfg.contentThreads = 4;
    FleetEngine threaded(cfg);
    const FleetReport b = threaded.run();

    expectReportsEqual(a, b);
}

TEST(FleetAutoTuneTest, ComposesWithQuarantineUnderChaos)
{
    // Half the pool dies mid-run with the tuner live: retuning,
    // retry/hedge recovery and quarantine must coexist — the run
    // stays conservative, keeps stepping the tuners, and remains
    // deterministic.
    FleetConfig cfg = tunedFleet();
    cfg.ft.enabled = true;
    cfg.ft.probePeriodS = 0.25;
    ChaosEvent kill;
    kill.timeS = 0.33;
    kill.kind = ChaosEvent::Kind::Kill;
    kill.deadFraction = 0.9;
    kill.device = 0;
    cfg.chaos.push_back(kill);
    kill.device = 1;
    cfg.chaos.push_back(kill);

    FleetEngine first(cfg);
    const FleetReport r = first.run();
    EXPECT_GT(r.tuneSteps, 0u);
    EXPECT_GE(r.quarantines, 2u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_EQ(r.offered, r.admitted + r.dropped);
    EXPECT_EQ(r.admitted, r.completed + r.shed);

    FleetEngine second(cfg);
    expectReportsEqual(r, second.run());
}

TEST(FleetAutoTuneTest, RejectsEnabledTunerWithoutStepPeriod)
{
    // Without a step period no TuneStep is ever scheduled: the
    // tuners would observe every completion and never step.
    FleetConfig cfg = tunedFleet();
    cfg.tune.windowS = 0.0;
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "tune.windowS");
    cfg.tune.windowS = -0.5;
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "tune.windowS");
    // A NaN period puts TuneStep events at NaN times into the event
    // heap; an infinite one schedules its first step at t = inf.
    cfg.tune.windowS = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "tune.windowS");
    cfg.tune.windowS = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "tune.windowS");
}

TEST(FleetAutoTuneTest, ReportPrintsTheAutotuneLine)
{
    FleetEngine engine(tunedFleet());
    const FleetReport r = engine.run();
    std::ostringstream os;
    r.print(os);
    EXPECT_NE(os.str().find("autotune:"), std::string::npos);
    EXPECT_NE(os.str().find("retunes"), std::string::npos);
}

} // namespace
} // namespace fleet
} // namespace redeye
