/** @file Tests for the multi-tenant fleet serving engine. */

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/engine.hh"

namespace redeye {
namespace fleet {
namespace {

/** A small, comfortably provisioned fleet (DES-only, fast). */
FleetConfig
smallFleet()
{
    FleetConfig c;
    c.sessions = 24;
    c.framesPerSession = 8;
    c.sessionRateHz = 5.0; // 120 fps offered vs ~400 fps of hosts
    c.pool.devices = 4;
    c.pool.hostWorkers = 8;
    c.queueCapacity = 32;
    c.seed = 0xbeefcafe;
    return c;
}

void
expectClassReportsEqual(const ClassReport &a, const ClassReport &b)
{
    EXPECT_EQ(a.sessions, b.sessions);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.sloViolations, b.sloViolations);
    EXPECT_DOUBLE_EQ(a.fps, b.fps);
    EXPECT_DOUBLE_EQ(a.p50S, b.p50S);
    EXPECT_DOUBLE_EQ(a.p95S, b.p95S);
    EXPECT_DOUBLE_EQ(a.p99S, b.p99S);
    EXPECT_DOUBLE_EQ(a.meanLatencyS, b.meanLatencyS);
    EXPECT_DOUBLE_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_DOUBLE_EQ(a.meanSystemJ, b.meanSystemJ);
    EXPECT_DOUBLE_EQ(a.fairness, b.fairness);
}

TEST(FleetEngineTest, DeterministicAcrossRuns)
{
    const FleetConfig cfg = smallFleet();
    FleetEngine first(cfg);
    FleetEngine second(cfg);
    const FleetReport a = first.run();
    const FleetReport b = second.run();

    EXPECT_DOUBLE_EQ(a.makespanS, b.makespanS);
    EXPECT_DOUBLE_EQ(a.aggregateFps, b.aggregateFps);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_DOUBLE_EQ(a.deviceUtilization, b.deviceUtilization);
    EXPECT_DOUBLE_EQ(a.hostUtilization, b.hostUtilization);
    for (std::size_t c = 0; c < kTrafficClasses; ++c)
        expectClassReportsEqual(a.classes[c], b.classes[c]);
}

TEST(FleetEngineTest, ConservationPerClass)
{
    FleetEngine engine(smallFleet());
    const FleetReport r = engine.run();

    std::size_t sessions = 0;
    for (const ClassReport &cr : r.classes) {
        // Every offered frame is decided (admitted or dropped), and
        // every admitted frame is resolved (completed or shed): the
        // event loop drains fully before reporting.
        EXPECT_EQ(cr.offered, cr.admitted + cr.dropped);
        EXPECT_EQ(cr.admitted, cr.completed + cr.shed);
        sessions += cr.sessions;
    }
    EXPECT_EQ(sessions, engine.config().sessions);
    EXPECT_EQ(r.offered, engine.config().sessions *
                             engine.config().framesPerSession);
    EXPECT_EQ(r.offered, r.admitted + r.dropped);
    EXPECT_EQ(r.admitted, r.completed + r.shed);

    // A comfortably provisioned fleet completes everything.
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_EQ(r.shed + r.dropped, 0u);
    EXPECT_GT(r.makespanS, 0.0);
    EXPECT_GT(r.aggregateFps, 0.0);
}

TEST(FleetEngineTest, ProgramCacheCompilesOncePerOperatingPoint)
{
    const FleetConfig cfg = smallFleet();
    FleetEngine engine(cfg);
    engine.run();

    // Three classes x {class point, remap point} = 6 compilations;
    // every per-session fetch afterwards is a hit.
    EXPECT_EQ(engine.programCache().misses(), 6u);
    EXPECT_EQ(engine.programCache().hits(), cfg.sessions);
    EXPECT_EQ(engine.programCache().size(), 6u);
}

TEST(FleetEngineTest, InteractiveHoldsSloUnderOversubscription)
{
    FleetConfig cfg;
    cfg.sessions = 200;
    cfg.framesPerSession = 6;
    cfg.sessionRateHz = 50.0; // offered load >> pool capacity
    cfg.pool.devices = 2;
    cfg.pool.hostWorkers = 2;
    cfg.queueCapacity = 16;
    cfg.seed = 0x0a0b0c;

    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    const ClassReport &interactive =
        r.classes[classIndex(TrafficClass::Interactive)];
    const ClassReport &best_effort =
        r.classes[classIndex(TrafficClass::BestEffort)];

    // Oversubscription bites: frames are refused or shed.
    EXPECT_GT(r.dropped + r.shed, 0u);

    // The QoS contract: INTERACTIVE keeps its latency SLO because
    // its shallow queue share bounds queueing delay...
    ASSERT_GT(interactive.completed, 0u);
    EXPECT_GE(interactive.sloAttainment, 0.99);
    EXPECT_LT(interactive.p99S,
              engine.classSloS(TrafficClass::Interactive));

    // ...while BEST_EFFORT soaks the queue and waits far longer.
    ASSERT_GT(best_effort.completed, 0u);
    EXPECT_GT(best_effort.p99S, interactive.p99S);
    EXPECT_GT(best_effort.dropped + best_effort.shed, 0u);
    EXPECT_LT(engine.classSloS(TrafficClass::Interactive),
              engine.classSloS(TrafficClass::BestEffort));
}

TEST(FleetEngineTest, FixedPoolServesMoreClientsMoreFrames)
{
    FleetConfig small = smallFleet();
    small.sessions = 10;
    small.framesPerSession = 4;
    FleetConfig big = small;
    big.sessions = 50;

    FleetEngine small_engine(small);
    FleetEngine big_engine(big);
    const FleetReport a = small_engine.run();
    const FleetReport b = big_engine.run();
    EXPECT_GT(b.completed, a.completed);
    // Same pool, more demand: utilization cannot go down.
    EXPECT_GE(b.hostUtilization, a.hostUtilization);
}

TEST(FleetEngineTest, FaultyDevicesDegradeButStillServe)
{
    FleetConfig cfg = smallFleet();
    cfg.pool.devices = 4;
    cfg.pool.faultyFraction = 1.0; // every device remaps
    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    EXPECT_EQ(r.devicesRemap, cfg.pool.devices);
    EXPECT_EQ(r.devicesNormal, 0u);
    // One plan per device in the shared cache.
    EXPECT_EQ(r.planCacheMisses, cfg.pool.devices);
    // Degraded, not down: the fleet still completes everything.
    EXPECT_EQ(r.completed, r.offered);
}

TEST(FleetEngineTest, IdleSessionsExpireAfterRun)
{
    FleetConfig cfg = smallFleet();
    cfg.sessionIdleExpireS = 1e-9;
    FleetEngine engine(cfg);
    const FleetReport r = engine.run();

    // With a near-zero idle horizon every session not active at the
    // final event expires; at least the last finisher survives.
    EXPECT_GE(r.expiredSessions, 1u);
    EXPECT_EQ(engine.sessions().size() + r.expiredSessions,
              cfg.sessions);
    EXPECT_LT(engine.sessions().size(), cfg.sessions);
}

TEST(FleetEngineTest, RejectsNegativeWindow)
{
    // A negative span would silently turn reporting windows off, and
    // a worst-window SLO gate would then pass on no windows at all.
    // NaN would turn them off too, and +inf casts a NaN window count.
    FleetConfig cfg = smallFleet();
    for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        cfg.windowS = bad;
        EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                    "windowS")
            << bad;
    }
}

TEST(FleetEngineTest, ExtremeWindowSpansClampTheTable)
{
    // Windows only report. A span tiny against the run asks for more
    // windows than an integer holds: the table stops at 65,536, and
    // the last takes every later event. A span longer than the run
    // puts every event in the first window.
    FleetConfig cfg = smallFleet();
    FleetEngine plain_engine(cfg);
    const FleetReport plain = plain_engine.run();
    for (const double span : {1e-300, 1e300}) {
        cfg.windowS = span;
        FleetEngine engine(cfg);
        const FleetReport r = engine.run();
        EXPECT_EQ(r.completed, plain.completed) << span;
        EXPECT_DOUBLE_EQ(r.makespanS, plain.makespanS) << span;
        ASSERT_EQ(r.windows.size(), span < 1.0 ? 65536u : 1u) << span;
        std::uint64_t completed = 0;
        for (const std::uint64_t c : r.windows.back().completed)
            completed += c;
        EXPECT_EQ(completed, plain.completed) << span;
    }
}

TEST(FleetEngineTest, RejectsChaosWithoutFaultTolerance)
{
    // Only the fault-tolerance layer schedules chaos; with it off the
    // kill would be silently dropped.
    FleetConfig cfg = smallFleet();
    ChaosEvent kill;
    kill.timeS = 0.1;
    cfg.chaos.push_back(kill);
    EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                "chaos needs ft\\.enabled");
}

TEST(FleetEngineTest, RejectsNonFiniteSessionRate)
{
    // NaN passes a `rate <= 0` test, and a NaN rate would feed NaN
    // event times to the heap.
    for (double rate : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(), 0.0}) {
        FleetConfig cfg = smallFleet();
        cfg.sessionRateHz = rate;
        EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                    "session rate must be finite and positive")
            << rate;
    }
}

TEST(FleetEngineTest, RejectsInvalidQosShares)
{
    // The queues convert each share to a slot count: a negative or
    // NaN share has no count, and a share above 1 or a floor above
    // its cap has no meaning.
    FleetConfig negative = smallFleet();
    negative.qos[0].reservedShare = -0.5;
    EXPECT_EXIT(FleetEngine{negative}, ::testing::ExitedWithCode(1),
                "qos\\[0\\]\\.reservedShare must be in \\[0, 1\\]");

    FleetConfig nan_cap = smallFleet();
    nan_cap.qos[1].maxShare = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(FleetEngine{nan_cap}, ::testing::ExitedWithCode(1),
                "qos\\[1\\]\\.maxShare must be in \\[0, 1\\]");

    FleetConfig above_one = smallFleet();
    above_one.qos[2].maxShare = 1.5;
    EXPECT_EXIT(FleetEngine{above_one}, ::testing::ExitedWithCode(1),
                "qos\\[2\\]\\.maxShare must be in \\[0, 1\\]");

    FleetConfig inverted = smallFleet();
    inverted.qos[0].reservedShare = 0.5;
    inverted.qos[0].maxShare = 0.25;
    EXPECT_EXIT(FleetEngine{inverted}, ::testing::ExitedWithCode(1),
                "qos\\[0\\]\\.reservedShare \\(0\\.5\\) must not exceed "
                "maxShare");
}

TEST(FleetEngineTest, RejectsNegativeOrNonFiniteMix)
{
    // A negative entry would make the cumulative class draw
    // non-monotone; the remainder rule needs finite fractions.
    FleetConfig negative = smallFleet();
    negative.mix = {-1.0, 0.5, 0.5};
    EXPECT_EXIT(FleetEngine{negative}, ::testing::ExitedWithCode(1),
                "mix\\[0\\] must be finite and non-negative");
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
        FleetConfig cfg = smallFleet();
        cfg.mix[2] = bad;
        EXPECT_EXIT(FleetEngine{cfg}, ::testing::ExitedWithCode(1),
                    "mix\\[2\\] must be finite and non-negative")
            << bad;
    }
}

TEST(FleetEngineTest, ContentPredictionsMatchAtAnyThreadCount)
{
    // The expensive test: the flagged sessions run the real vision
    // pipeline per completed frame (~1 s/frame), so keep it tiny.
    FleetConfig cfg;
    cfg.sessions = 4;
    cfg.framesPerSession = 2;
    cfg.sessionRateHz = 5.0;
    cfg.pool.devices = 2;
    cfg.pool.hostWorkers = 2;
    cfg.queueCapacity = 16;
    cfg.seed = 0x5eed5;
    cfg.contentSessions = 2;

    cfg.contentThreads = 1;
    FleetEngine serial(cfg);
    serial.run();

    cfg.contentThreads = 3;
    FleetEngine threaded(cfg);
    threaded.run();

    bool any_prediction = false;
    for (std::uint64_t id = 1; id <= cfg.contentSessions; ++id) {
        const Session *a = serial.sessions().find(id);
        const Session *b = threaded.sessions().find(id);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        ASSERT_EQ(a->predictions.size(), cfg.framesPerSession);
        EXPECT_EQ(a->completedMask, b->completedMask);
        EXPECT_EQ(a->predictions, b->predictions)
            << "session " << id;
        for (std::int32_t p : a->predictions)
            any_prediction |= p >= 0;
    }
    // The under-loaded fleet completed frames, so content really ran.
    EXPECT_TRUE(any_prediction);
}

} // namespace
} // namespace fleet
} // namespace redeye
