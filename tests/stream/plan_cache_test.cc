/**
 * @file
 * Tests for the degradation-plan cache and its content-address key:
 * one compute per key, stable references, and a key that tracks the
 * epoch and the full operating point.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "redeye/column.hh"
#include "stream/degrade.hh"

namespace redeye {
namespace stream {
namespace {

DegradePlan
remapPlan(std::size_t suspect)
{
    DegradePlan plan;
    plan.mode = DegradeMode::Remap;
    plan.suspectColumns = {suspect};
    return plan;
}

TEST(DegradePlanCacheTest, ComputesOncePerKey)
{
    DegradePlanCache cache;
    int computes = 0;
    auto compute = [&] {
        ++computes;
        return remapPlan(3);
    };

    const DegradePlan &first = cache.fetch(42, compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(first.mode, DegradeMode::Remap);

    const DegradePlan &again = cache.fetch(42, compute);
    EXPECT_EQ(computes, 1); // served from the cache
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    // No eviction: the reference from the first fetch stays valid.
    EXPECT_EQ(&again, &first);
}

TEST(DegradePlanCacheTest, DistinctKeysComputeSeparately)
{
    DegradePlanCache cache;
    const DegradePlan &a = cache.fetch(1, [] { return remapPlan(1); });
    const DegradePlan &b = cache.fetch(2, [] { return remapPlan(2); });
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
    ASSERT_EQ(a.suspectColumns.size(), 1u);
    ASSERT_EQ(b.suspectColumns.size(), 1u);
    EXPECT_EQ(a.suspectColumns[0], 1u);
    EXPECT_EQ(b.suspectColumns[0], 2u);
}

TEST(DegradePlanKeyTest, EpochIsPartOfTheKey)
{
    arch::ColumnArrayConfig array;
    DegradationPolicyConfig policy;
    EXPECT_EQ(degradePlanKey(0, array, policy),
              degradePlanKey(0, array, policy));
    EXPECT_NE(degradePlanKey(0, array, policy),
              degradePlanKey(1, array, policy));
}

TEST(DegradePlanKeyTest, ArrayOperatingPointIsPartOfTheKey)
{
    arch::ColumnArrayConfig array;
    DegradationPolicyConfig policy;
    const std::uint64_t base = degradePlanKey(0, array, policy);

    arch::ColumnArrayConfig wider = array;
    wider.columns = array.columns * 2;
    EXPECT_NE(degradePlanKey(0, wider, policy), base);

    arch::ColumnArrayConfig boosted = array;
    boosted.adcBits = array.adcBits + 2;
    EXPECT_NE(degradePlanKey(0, boosted, policy), base);
}

TEST(DegradePlanKeyTest, PolicyKnobsArePartOfTheKey)
{
    arch::ColumnArrayConfig array;
    DegradationPolicyConfig policy;
    const std::uint64_t base = degradePlanKey(0, array, policy);

    DegradationPolicyConfig eager = policy;
    eager.bypassSuspectFraction = policy.bypassSuspectFraction / 2.0;
    EXPECT_NE(degradePlanKey(0, array, eager), base);
}

} // namespace
} // namespace stream
} // namespace redeye
