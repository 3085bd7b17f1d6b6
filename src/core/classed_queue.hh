/**
 * @file
 * Bounded multi-class queue with weighted-fair dequeue and per-class
 * admission accounting.
 *
 * The fleet runtime (src/fleet) admits frames from many sessions into
 * one shared queue in front of the device pool; classes (traffic
 * priorities) share the bound unequally. ClassedQueue supplies the
 * three mechanisms that make oversubscription degrade gracefully:
 *
 *  - **Per-class occupancy caps**: class c may hold at most
 *    `maxSlots` items even when the queue has room, so a flood of
 *    best-effort traffic cannot monopolize the bound.
 *  - **Priority eviction**: when the queue is full, a push from a
 *    higher-priority class (lower index) evicts the oldest item of
 *    the lowest-priority class holding more than its `reserved`
 *    guarantee. Load shedding therefore consumes best-effort slots
 *    first while every class keeps its reserved floor.
 *  - **Weighted deficit round robin dequeue**: popWeighted() serves
 *    classes in proportion to their weights (when all are backlogged,
 *    class c receives weight_c / sum(weights) of the service), and is
 *    work-conserving — an idle class's share is redistributed.
 *
 * Storage is one preallocated ring per class (each sized to the full
 * bound, since a lone class may occupy the entire queue), so
 * steady-state operation performs no heap allocation. All operations
 * are thread-safe; per-class counters (pushed, rejected, evicted,
 * popped, high water) are the accounting the fleet report surfaces.
 */

#ifndef REDEYE_CORE_CLASSED_QUEUE_HH
#define REDEYE_CORE_CLASSED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/logging.hh"

namespace redeye {

/** Outcome of a classed push attempt. */
enum class ClassedPush {
    Admitted,         ///< item enqueued (possibly after an eviction)
    RejectedClassCap, ///< class at its maxSlots occupancy cap
    RejectedFull,     ///< queue full, no evictable lower class
    Closed,           ///< queue already closed
};

/** Admission parameters of one traffic class. */
struct ClassedQueueClass {
    /** DRR service weight (>= 1). */
    unsigned weight = 1;

    /** Slots this class keeps even under higher-priority eviction. */
    std::size_t reserved = 0;

    /** Occupancy cap (may exceed capacity = effectively unlimited). */
    std::size_t maxSlots = std::numeric_limits<std::size_t>::max();
};

/** Bounded multi-class MPMC queue; class 0 is the highest priority. */
template <typename T>
class ClassedQueue
{
  public:
    /** Per-class admission/eviction/service counters. */
    struct Counters {
        std::uint64_t pushed = 0;   ///< admitted items
        std::uint64_t rejected = 0; ///< cap or full rejections
        std::uint64_t evicted = 0;  ///< shed to admit a higher class
        std::uint64_t popped = 0;   ///< served items
        std::size_t highWater = 0;  ///< peak class occupancy
    };

    /**
     * @param capacity Total queued items across classes (>= 1).
     * @param classes Per-class parameters, highest priority first.
     */
    ClassedQueue(std::size_t capacity,
                 std::vector<ClassedQueueClass> classes)
        : capacity_(capacity), classes_(std::move(classes))
    {
        fatal_if(capacity_ == 0, "queue capacity must be positive");
        fatal_if(classes_.empty(), "queue needs at least one class");
        for (const ClassedQueueClass &c : classes_)
            fatal_if(c.weight == 0, "class weight must be >= 1");
        rings_.resize(classes_.size());
        for (Ring &r : rings_)
            r.slots.resize(capacity_);
        counters_.resize(classes_.size());
        deficits_.assign(classes_.size(), 0.0);
    }

    ClassedQueue(const ClassedQueue &) = delete;
    ClassedQueue &operator=(const ClassedQueue &) = delete;

    /**
     * Admit @p item into class @p cls without blocking. When the
     * queue is full the push may evict the oldest item of the lowest
     * priority class exceeding its reservation; the victim (and its
     * class) are returned through @p evicted / @p evicted_class for
     * the caller to account. On any rejection @p item is left
     * unmoved.
     */
    ClassedPush
    push(std::size_t cls, T &&item, std::optional<T> *evicted = nullptr,
         std::size_t *evicted_class = nullptr)
    {
        if (evicted)
            evicted->reset();
        std::unique_lock<std::mutex> lock(mutex_);
        panic_if(cls >= classes_.size(), "class index out of range");
        if (closed_)
            return ClassedPush::Closed;
        if (rings_[cls].count >= classes_[cls].maxSlots) {
            ++counters_[cls].rejected;
            return ClassedPush::RejectedClassCap;
        }
        if (total_ >= capacity_) {
            // Shed from the lowest-priority class that is strictly
            // below the pusher and above its reserved floor.
            std::size_t victim = classes_.size();
            for (std::size_t v = classes_.size(); v-- > cls + 1;) {
                if (rings_[v].count > classes_[v].reserved) {
                    victim = v;
                    break;
                }
            }
            if (victim == classes_.size()) {
                ++counters_[cls].rejected;
                return ClassedPush::RejectedFull;
            }
            T old = dequeueClass(victim);
            ++counters_[victim].evicted;
            if (evicted)
                evicted->emplace(std::move(old));
            if (evicted_class)
                *evicted_class = victim;
        }
        enqueueClass(cls, std::move(item));
        lock.unlock();
        notEmpty_.notify_one();
        return ClassedPush::Admitted;
    }

    /**
     * Dequeue under weighted deficit round robin, blocking while the
     * queue is empty and not closed. Returns false once closed and
     * drained. @p cls receives the served item's class.
     */
    bool
    popWeighted(T &out, std::size_t &cls)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notEmpty_.wait(lock, [&] { return closed_ || total_ > 0; });
        if (total_ == 0)
            return false;
        serveLocked(out, cls);
        return true;
    }

    /** Non-blocking popWeighted(); false when currently empty. */
    bool
    tryPopWeighted(T &out, std::size_t &cls)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (total_ == 0)
            return false;
        serveLocked(out, cls);
        return true;
    }

    /** Close: pushes fail, blocked poppers wake and drain. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notify_all();
    }

    /** Items queued across all classes. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return total_;
    }

    /** Items queued in class @p cls. */
    std::size_t
    size(std::size_t cls) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(cls >= rings_.size(), "class index out of range");
        return rings_[cls].count;
    }

    /** Accounting snapshot of class @p cls. */
    Counters
    counters(std::size_t cls) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(cls >= counters_.size(), "class index out of range");
        return counters_[cls];
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t classCount() const { return classes_.size(); }

  private:
    struct Ring {
        std::vector<T> slots;
        std::size_t head = 0;
        std::size_t count = 0;
    };

    void
    enqueueClass(std::size_t cls, T &&item)
    {
        Ring &r = rings_[cls];
        r.slots[(r.head + r.count) % r.slots.size()] = std::move(item);
        ++r.count;
        ++total_;
        ++counters_[cls].pushed;
        counters_[cls].highWater =
            std::max(counters_[cls].highWater, r.count);
    }

    T
    dequeueClass(std::size_t cls)
    {
        Ring &r = rings_[cls];
        T item = std::move(r.slots[r.head]);
        r.head = (r.head + 1) % r.slots.size();
        --r.count;
        --total_;
        return item;
    }

    /**
     * Serve one item under DRR (caller holds the lock, total_ > 0).
     * Classes spend accumulated deficit one unit per item; when no
     * backlogged class has credit, every backlogged class is
     * replenished by its weight (idle classes reset to zero, which is
     * what makes the scheduler work-conserving).
     */
    void
    serveLocked(T &out, std::size_t &cls)
    {
        for (;;) {
            for (std::size_t k = 0; k < classes_.size(); ++k) {
                const std::size_t c =
                    (cursor_ + k) % classes_.size();
                if (rings_[c].count == 0)
                    continue;
                if (deficits_[c] < 1.0)
                    continue;
                deficits_[c] -= 1.0;
                cursor_ = c;
                out = dequeueClass(c);
                ++counters_[c].popped;
                cls = c;
                return;
            }
            for (std::size_t c = 0; c < classes_.size(); ++c) {
                deficits_[c] =
                    rings_[c].count
                        ? deficits_[c] + classes_[c].weight
                        : 0.0;
            }
        }
    }

    const std::size_t capacity_;
    std::vector<ClassedQueueClass> classes_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::vector<Ring> rings_;
    std::vector<Counters> counters_;
    std::vector<double> deficits_;
    std::size_t cursor_ = 0;
    std::size_t total_ = 0;
    bool closed_ = false;
};

} // namespace redeye

#endif // REDEYE_CORE_CLASSED_QUEUE_HH
