/**
 * @file
 * ContentCache: a thread-safe, content-addressed store.
 *
 * Each derived artifact this repo caches — a compiled program, a
 * degradation plan, an operating point's serving model, a partition's
 * validity — is a pure function of its inputs, so it is stored under
 * a 64-bit structural hash of them (core/structural_hash.hh) and a
 * key change simply misses. The contract (DESIGN.md §10):
 *
 *  - find() returns the entry or null; a found key counts a hit.
 *  - insert() keeps whichever value was stored first: a miss when
 *    this call stored it, a hit when a racing call did.
 *  - fetch() is find(), then insert(key, build()) on a miss. build
 *    runs outside the lock, so threads racing on a new key may each
 *    build; purity makes the results interchangeable.
 *
 * Nothing is evicted and std::map nodes never move, so a returned
 * pointer or reference stays valid for the cache's lifetime.
 */

#ifndef REDEYE_CORE_CONTENT_CACHE_HH
#define REDEYE_CORE_CONTENT_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

namespace redeye {

template <typename V>
class ContentCache
{
  public:
    const V *
    find(std::uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it == entries_.end())
            return nullptr;
        ++hits_;
        return &it->second;
    }

    const V &
    insert(std::uint64_t key, V value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = entries_.try_emplace(key, std::move(value));
        ++(inserted ? misses_ : hits_);
        return it->second;
    }

    template <typename Build>
    const V &
    fetch(std::uint64_t key, Build &&build)
    {
        if (const V *found = find(key))
            return *found;
        return insert(key, std::forward<Build>(build)());
    }

    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hits_;
    }

    std::uint64_t
    misses() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return misses_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::uint64_t, V> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace redeye

#endif // REDEYE_CORE_CONTENT_CACHE_HH
