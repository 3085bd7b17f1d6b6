/**
 * @file
 * Tests for the shared device pool: its birth health planning,
 * leasing, and the health lifecycle it owns (sweep, serve-error and
 * reprobe transitions) driven directly, without a fleet engine.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/device_pool.hh"

namespace redeye {
namespace fleet {
namespace {

DevicePoolConfig
smallPool(std::size_t devices, std::size_t hosts)
{
    DevicePoolConfig c;
    c.devices = devices;
    c.hostWorkers = hosts;
    c.array.columns = 16; // small array keeps probing cheap
    return c;
}

/** A dead-column campaign on the 16-column array, live from frame 0.
 * The default draw kills 5 columns: enough for a sweep to
 * quarantine, few enough for a Remap plan. */
std::shared_ptr<const fault::FaultModel>
deadColumns(double rate = 0.25, std::uint64_t seed = 5)
{
    return std::make_shared<const fault::FaultModel>(
        fault::FaultCampaign::deadColumns(rate, seed), 16);
}

TEST(DevicePoolTest, HealthyPoolByDefault)
{
    DevicePool pool(smallPool(4, 2));
    EXPECT_EQ(pool.devices(), 4u);
    EXPECT_EQ(pool.hosts(), 2u);
    EXPECT_EQ(pool.healthCount(stream::DegradeMode::Normal), 4u);
    EXPECT_EQ(pool.healthCount(stream::DegradeMode::Remap), 0u);
    EXPECT_EQ(pool.healthCount(stream::DegradeMode::Bypass), 0u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(pool.device(i).id, i);
        EXPECT_FALSE(pool.device(i).busy);
        EXPECT_DOUBLE_EQ(pool.device(i).deadColumnFraction, 0.0);
    }
}

TEST(DevicePoolTest, FaultDrawIsDeterministicAndBanded)
{
    DevicePoolConfig cfg = smallPool(8, 2);
    cfg.faultyFraction = 0.4;
    cfg.brickedFraction = 0.3;

    DevicePool a(cfg);
    DevicePool b(cfg);
    for (std::size_t i = 0; i < cfg.devices; ++i) {
        EXPECT_EQ(a.device(i).health, b.device(i).health)
            << "device " << i;
        EXPECT_DOUBLE_EQ(a.device(i).deadColumnFraction,
                         b.device(i).deadColumnFraction);
    }
    // Every device lands in exactly one band.
    EXPECT_EQ(a.healthCount(stream::DegradeMode::Normal) +
                  a.healthCount(stream::DegradeMode::Remap) +
                  a.healthCount(stream::DegradeMode::Bypass),
              cfg.devices);
}

TEST(DevicePoolTest, FaultBandsMapToDegradeModes)
{
    // All-faulty (moderate damage) pools plan Remap everywhere; the
    // remap plan carries the policy's ADC boost.
    DevicePoolConfig faulty = smallPool(3, 1);
    faulty.faultyFraction = 1.0;
    DevicePool remap_pool(faulty);
    EXPECT_EQ(remap_pool.healthCount(stream::DegradeMode::Remap),
              3u);
    EXPECT_GT(remap_pool.device(0).plan.adcBits, 0u);
    EXPECT_FALSE(remap_pool.device(0).plan.columnMap.empty());

    // All-bricked pools are past the bypass threshold everywhere.
    DevicePoolConfig bricked = smallPool(3, 1);
    bricked.brickedFraction = 1.0;
    DevicePool bypass_pool(bricked);
    EXPECT_EQ(bypass_pool.healthCount(stream::DegradeMode::Bypass),
              3u);
}

TEST(DevicePoolTest, LeasePrefersHealthiestIdleDevice)
{
    DevicePoolConfig cfg = smallPool(8, 1);
    cfg.faultyFraction = 0.4;
    cfg.brickedFraction = 0.3;
    DevicePool pool(cfg);

    auto rank = [](stream::DegradeMode m) {
        return m == stream::DegradeMode::Normal   ? 0
               : m == stream::DegradeMode::Remap ? 1
                                                 : 2;
    };

    // Draining the pool must lease in non-decreasing damage order:
    // every Normal device before any Remap, every Remap before any
    // Bypass.
    int prev_rank = 0;
    for (std::size_t i = 0; i < cfg.devices; ++i) {
        ASSERT_TRUE(pool.hasIdleDevice());
        const int dev = pool.leaseDevice();
        ASSERT_GE(dev, 0);
        const int r =
            rank(pool.device(static_cast<std::size_t>(dev)).health);
        EXPECT_GE(r, prev_rank) << "lease " << i;
        prev_rank = r;
    }
    EXPECT_FALSE(pool.hasIdleDevice());
    EXPECT_EQ(pool.leaseDevice(), -1);
}

TEST(DevicePoolTest, ReleaseAccountsServiceAndUtilization)
{
    DevicePool pool(smallPool(2, 2));
    const int dev = pool.leaseDevice();
    ASSERT_GE(dev, 0);
    pool.releaseDevice(static_cast<std::size_t>(dev), 2.0, 0.5);

    const DeviceSlot &slot =
        pool.device(static_cast<std::size_t>(dev));
    EXPECT_FALSE(slot.busy);
    EXPECT_EQ(slot.framesServed, 1u);
    EXPECT_DOUBLE_EQ(slot.busyS, 2.0);
    EXPECT_DOUBLE_EQ(slot.energyJ, 0.5);
    // 2 s busy on one of two devices over 4 s of wall time.
    EXPECT_DOUBLE_EQ(pool.deviceUtilization(4.0), 0.25);

    const int host = pool.leaseHost();
    ASSERT_GE(host, 0);
    pool.releaseHost(static_cast<std::size_t>(host), 1.0);
    EXPECT_EQ(pool.host(static_cast<std::size_t>(host)).framesServed,
              1u);
    EXPECT_DOUBLE_EQ(pool.hostUtilization(2.0), 0.25);
}

TEST(DevicePoolTest, HostLeasesExhaustAndRecycle)
{
    DevicePool pool(smallPool(1, 2));
    EXPECT_EQ(pool.leaseHost(), 0);
    EXPECT_EQ(pool.leaseHost(), 1);
    EXPECT_FALSE(pool.hasIdleHost());
    EXPECT_EQ(pool.leaseHost(), -1);
    pool.releaseHost(0, 0.1);
    EXPECT_TRUE(pool.hasIdleHost());
    EXPECT_EQ(pool.leaseHost(), 0);
}

TEST(DevicePoolTest, SharedPlanCacheKeysOnePlanPerDevice)
{
    auto cache = std::make_shared<stream::DegradePlanCache>();
    DevicePoolConfig cfg = smallPool(4, 1);
    cfg.faultyFraction = 1.0;

    DevicePool first(cfg, cache);
    // Distinct devices are distinct epochs: one plan each.
    EXPECT_EQ(cache->size(), 4u);
    EXPECT_EQ(cache->misses(), 4u);

    // A second pool with the identical config re-fetches every plan.
    DevicePool second(cfg, cache);
    EXPECT_EQ(cache->size(), 4u);
    EXPECT_EQ(cache->misses(), 4u);
    EXPECT_EQ(cache->hits(), 4u);
    for (std::size_t i = 0; i < cfg.devices; ++i)
        EXPECT_EQ(first.device(i).health, second.device(i).health);
}

TEST(DevicePoolTest, RejectsEmptyPools)
{
    DevicePoolConfig no_devices = smallPool(1, 1);
    no_devices.devices = 0;
    EXPECT_EXIT(DevicePool{no_devices},
                ::testing::ExitedWithCode(1), "devices");

    DevicePoolConfig no_hosts = smallPool(1, 1);
    no_hosts.hostWorkers = 0;
    EXPECT_EXIT(DevicePool{no_hosts}, ::testing::ExitedWithCode(1),
                "hosts");
}

TEST(DevicePoolTest, SweepQuarantinesOnlyUncoveredDeadColumns)
{
    DevicePool pool(smallPool(2, 1));
    pool.setDeviceFaults(0, deadColumns());
    const std::size_t dead = pool.device(0).faults->deadColumnCount(0);
    ASSERT_GE(dead, 4u);
    ASSERT_LT(dead, 8u);
    // The birth plan saw a pristine array, so every dead column is
    // undetected and attempts on the device may fail.
    EXPECT_GT(pool.failureProbability(0), 0.0);
    EXPECT_EQ(pool.failureProbability(1), 0.0);

    EXPECT_FALSE(pool.sweep(1));
    EXPECT_EQ(pool.device(1).lifecycle, DeviceLifecycle::Active);
    EXPECT_DOUBLE_EQ(pool.device(1).healthEwma, 1.0);

    EXPECT_TRUE(pool.sweep(0));
    EXPECT_EQ(pool.device(0).lifecycle, DeviceLifecycle::Quarantined);
    EXPECT_EQ(pool.device(0).quarantines, 1u);
    EXPECT_LT(pool.device(0).healthEwma, 0.5);
    EXPECT_EQ(pool.activeDevices(), 1u);
    // A sweep passes over devices that are not Active.
    EXPECT_FALSE(pool.sweep(0));
    EXPECT_EQ(pool.device(0).quarantines, 1u);
}

TEST(DevicePoolTest, ThirdServeErrorQuarantines)
{
    DevicePool pool(smallPool(2, 1));
    EXPECT_FALSE(pool.recordServeError(0));
    EXPECT_FALSE(pool.recordServeError(0));
    EXPECT_EQ(pool.device(0).lifecycle, DeviceLifecycle::Active);
    EXPECT_TRUE(pool.recordServeError(0));
    EXPECT_EQ(pool.device(0).lifecycle, DeviceLifecycle::Quarantined);
    EXPECT_EQ(pool.device(0).errorsTotal, 3u);
    EXPECT_EQ(pool.device(0).serveErrors, 0u);
    EXPECT_EQ(pool.activeDevices(), 1u);
    EXPECT_EQ(pool.device(1).errorsTotal, 0u);
}

TEST(DevicePoolTest, QuarantinedDeviceBacksOffThenReadmitsRemapped)
{
    DevicePool pool(smallPool(2, 1));
    pool.setDeviceFaults(0, deadColumns());
    ASSERT_TRUE(pool.sweep(0));

    // Reprobes back off from 50 ms, doubling, until the health EWMA
    // climbs back over the bar.
    double delay = 0.05;
    EXPECT_DOUBLE_EQ(pool.reprobeDelayS(0), delay);
    ReprobeOutcome outcome;
    std::size_t waits = 0;
    while ((outcome = pool.reprobe(0)) == ReprobeOutcome::Waiting) {
        delay *= 2.0;
        EXPECT_DOUBLE_EQ(pool.reprobeDelayS(0), delay);
        EXPECT_EQ(pool.device(0).lifecycle,
                  DeviceLifecycle::Quarantined);
        ASSERT_LT(++waits, 8u);
    }
    EXPECT_GE(waits, 1u);
    ASSERT_EQ(outcome, ReprobeOutcome::Readmitted);

    // Readmitted under a plan around its dead columns.
    const DeviceSlot &slot = pool.device(0);
    EXPECT_EQ(slot.lifecycle, DeviceLifecycle::Active);
    EXPECT_EQ(slot.health, stream::DegradeMode::Remap);
    EXPECT_EQ(slot.plan.suspectColumns.size(),
              slot.faults->deadColumnCount(0));
    EXPECT_DOUBLE_EQ(slot.healthEwma, 1.0);
    EXPECT_EQ(slot.recoveries, 1u);
    EXPECT_EQ(pool.totalRecoveries(), 1u);
    EXPECT_EQ(pool.failureProbability(0), 0.0);
    EXPECT_EQ(pool.activeDevices(), 2u);
    // Both devices are back in the idle set, exactly once each.
    EXPECT_GE(pool.leaseDevice(), 0);
    EXPECT_GE(pool.leaseDevice(), 0);
    EXPECT_FALSE(pool.hasIdleDevice());
    EXPECT_EQ(pool.leaseDevice(), -1);
}

TEST(DevicePoolTest, QuarantineWhileLeasedDrainsOnRelease)
{
    DevicePool pool(smallPool(2, 1));
    ASSERT_EQ(pool.leaseDevice(), 0);
    for (int i = 0; i < 3; ++i)
        pool.recordServeError(0);
    ASSERT_EQ(pool.device(0).lifecycle, DeviceLifecycle::Quarantined);
    EXPECT_TRUE(pool.device(0).busy); // the lease is not interrupted

    pool.releaseDevice(0, 1.0, 0.0);
    EXPECT_EQ(pool.device(0).framesServed, 1u);
    // Released, but not back in the idle set.
    EXPECT_EQ(pool.leaseDevice(), 1);
    EXPECT_FALSE(pool.hasIdleDevice());
    EXPECT_EQ(pool.leaseDevice(), -1);
}

TEST(DevicePoolTest, FullyDeadDeviceRetiresAndIsNeverLeased)
{
    DevicePool pool(smallPool(2, 1));
    pool.setDeviceFaults(0, deadColumns(1.0));
    ASSERT_TRUE(pool.sweep(0));
    EXPECT_EQ(pool.reprobe(0), ReprobeOutcome::Retired);
    EXPECT_EQ(pool.device(0).lifecycle, DeviceLifecycle::Retired);
    EXPECT_EQ(pool.lifecycleCount(DeviceLifecycle::Retired), 1u);
    EXPECT_EQ(pool.activeDevices(), 1u);
    EXPECT_EQ(pool.totalRecoveries(), 0u);
    EXPECT_FALSE(pool.sweep(0));

    for (int round = 0; round < 3; ++round) {
        ASSERT_EQ(pool.leaseDevice(), 1);
        EXPECT_EQ(pool.leaseDevice(), -1);
        pool.releaseDevice(1, 0.1, 0.0);
    }
    // Excluding the only Active device leaves nothing to lease.
    EXPECT_EQ(pool.leaseDevice(1), -1);
}

TEST(DevicePoolTest, ReleasingIdleSlotIsFatal)
{
    DevicePool pool(smallPool(1, 1));
    EXPECT_EXIT(pool.releaseDevice(0, 0.0, 0.0),
                ::testing::ExitedWithCode(1), "idle");
    EXPECT_EXIT(pool.releaseDevice(5, 0.0, 0.0),
                ::testing::ExitedWithCode(1), "range");
}

} // namespace
} // namespace fleet
} // namespace redeye
