/**
 * @file
 * Tests for the content-addressed cache contract: hit and miss
 * accounting of find, insert and fetch (a lost insert race counts a
 * hit), one stored entry under concurrent fetches, references that
 * survive later inserts, and no build on a hit.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/content_cache.hh"

namespace redeye {
namespace {

TEST(ContentCacheTest, FindCountsOnlyFoundKeys)
{
    ContentCache<int> cache;
    EXPECT_EQ(cache.find(7), nullptr);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);

    cache.insert(7, 70);
    const int *found = cache.find(7);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, 70);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(ContentCacheTest, LostInsertRaceKeepsTheFirstValueAndCountsAHit)
{
    ContentCache<std::string> cache;
    const std::string &first = cache.insert(1, "first");
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    // A second insert under the same key is the loser of a build
    // race: its value is dropped and the stored one returned.
    const std::string &second = cache.insert(1, "second");
    EXPECT_EQ(&second, &first);
    EXPECT_EQ(second, "first");
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ContentCacheTest, FetchBuildsOnMissOnly)
{
    ContentCache<int> cache;
    int builds = 0;
    auto build = [&] {
        ++builds;
        return 42;
    };

    const int &first = cache.fetch(5, build);
    EXPECT_EQ(first, 42);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    const int &again = cache.fetch(5, build);
    EXPECT_EQ(builds, 1) << "a hit must not call build";
    EXPECT_EQ(&again, &first);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    cache.fetch(6, build);
    EXPECT_EQ(builds, 2);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ContentCacheTest, ConcurrentFetchesOfANewKeyStoreOneEntry)
{
    constexpr std::size_t kThreads = 8;
    ContentCache<std::vector<int>> cache;
    std::vector<const std::vector<int> *> got(kThreads, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    // Release every thread at once so fetches race on the new key.
    std::atomic<bool> go{false};
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            got[t] = &cache.fetch(99, [] {
                return std::vector<int>{1, 2, 3};
            });
        });
    }
    go.store(true);
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), kThreads - 1);
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
        EXPECT_EQ(*got[t], (std::vector<int>{1, 2, 3}));
    }
}

TEST(ContentCacheTest, ReferencesSurviveLaterInserts)
{
    ContentCache<std::string> cache;
    const std::string &kept = cache.insert(0, "kept");
    const std::string *address = &kept;
    for (std::uint64_t key = 1; key <= 1000; ++key)
        cache.insert(key, std::to_string(key));

    // Read through the old reference (ASan would flag a moved node)
    // and check the entry still lives at the same address.
    EXPECT_EQ(cache.size(), 1001u);
    EXPECT_EQ(kept, "kept");
    EXPECT_EQ(cache.find(0), address);
}

} // namespace
} // namespace redeye
