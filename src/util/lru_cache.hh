/**
 * @file
 * The host-side cache implementation: a thread-safe, single-flight LRU
 * memo from a key to an immutable value that is built on first request
 * and shared afterwards. The plan, schedule, twiddle-table, twiddle-slab
 * and ABFT-coefficient caches are thin subclasses that supply the key
 * and the build, so they share one concurrency contract:
 *
 *  - Single flight. The first get() of a key inserts a pending entry
 *    and runs the build on the calling thread with no lock held.
 *    Concurrent get()s of that key wait for that build and receive the
 *    same shared_ptr; lookups of other keys never wait on it. A build
 *    may therefore consult other caches or the host thread pool (it
 *    must not get() its own key).
 *  - Counting. hit_out is false only for the caller that built, so
 *    counters().misses counts builds and hits + misses counts get()s.
 *  - Failure. A build that throws leaves no entry: its waiters see the
 *    exception and the next get() of the key builds again.
 *  - Bounds. An entry bound and a byte budget (the value's sizeBytes(),
 *    when it has one) evict the least recently used built entries,
 *    never the last entry; a pending entry weighs nothing and is never
 *    evicted. Pointers already handed out stay valid after eviction or
 *    clear(), and a clear() during a build drops that entry without
 *    disturbing the byte count or the result its caller gets.
 *
 * Lookups scan the recency list: every cache holds a few dozen entries
 * at most, and keys need only operator==.
 */

#ifndef UNINTT_UTIL_LRU_CACHE_HH
#define UNINTT_UTIL_LRU_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <future>
#include <limits>
#include <list>
#include <memory>
#include <mutex>

namespace unintt {

/** Hit/miss counters of one cache; monotone over the process. */
struct CacheCounters
{
    uint64_t hits = 0;
    /** get()s that ran the build: one per build. */
    uint64_t misses = 0;
};

/** Thread-safe single-flight LRU cache of shared immutable values. */
template <typename Key, typename Value>
class LruCache
{
  public:
    using Ptr = std::shared_ptr<const Value>;

    /**
     * @param max_entries LRU bound on resident entries (>= 1).
     * @param max_bytes   LRU bound on the summed sizeBytes() of the
     *                    built entries (unbounded by default).
     */
    explicit LruCache(size_t max_entries,
                      size_t max_bytes = std::numeric_limits<size_t>::max())
        : maxEntries_(max_entries), maxBytes_(max_bytes)
    {
    }

    LruCache(const LruCache &) = delete;
    LruCache &operator=(const LruCache &) = delete;

    /**
     * The value for @p key, built by @p build() (which returns a Value)
     * on the first request and shared afterwards. @p hit_out (optional)
     * reports whether this call was served without building.
     */
    template <typename Build>
    Ptr
    get(const Key &key, Build &&build, bool *hit_out = nullptr)
    {
        std::unique_lock<std::mutex> lk(mutex_);
        for (auto it = lru_.begin(); it != lru_.end(); ++it) {
            if (it->key == key) {
                counters_.hits++;
                lru_.splice(lru_.begin(), lru_, it); // refresh recency
                const std::shared_future<Ptr> value = it->value;
                lk.unlock();
                if (hit_out)
                    *hit_out = true;
                return value.get(); // waits out a pending build
            }
        }
        counters_.misses++;
        const uint64_t id = ++lastId_;
        std::promise<Ptr> promise;
        lru_.push_front(Entry{key, promise.get_future().share(), id});
        evict();
        lk.unlock();
        if (hit_out)
            *hit_out = false;

        Ptr value;
        try {
            value = std::make_shared<const Value>(build());
        } catch (...) {
            settle(id, nullptr);
            promise.set_exception(std::current_exception());
            throw;
        }
        promise.set_value(value);
        settle(id, value.get());
        return value;
    }

    /** Drop every entry (cold-cache tests). Counters persist. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lk(mutex_);
        lru_.clear();
        bytes_ = 0;
    }

    /** Lifetime hit/miss counters. */
    CacheCounters
    counters() const
    {
        std::lock_guard<std::mutex> lk(mutex_);
        return counters_;
    }

    /** Entries currently resident, pending builds included. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mutex_);
        return lru_.size();
    }

  private:
    struct Entry
    {
        Key key;
        std::shared_future<Ptr> value;
        /** Finds a pending entry again after the unlocked build. */
        uint64_t id;
        bool pending = true;
        size_t bytes = 0;
    };

    static size_t
    bytesOf(const Value &v)
    {
        if constexpr (requires { v.sizeBytes(); })
            return v.sizeBytes();
        else
            return 0;
    }

    /**
     * Close the build of entry @p id: account @p built, or erase the
     * entry when the build threw (@p built null). An entry a clear()
     * dropped mid-build is gone and stays gone.
     */
    void
    settle(uint64_t id, const Value *built)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto it = std::find_if(lru_.begin(), lru_.end(),
                               [id](const Entry &e) { return e.id == id; });
        if (it == lru_.end())
            return;
        if (built == nullptr) {
            lru_.erase(it);
            return;
        }
        it->pending = false;
        it->bytes = bytesOf(*built);
        bytes_ += it->bytes;
        evict();
    }

    /** Evict LRU built entries while over a bound; caller holds mutex_. */
    void
    evict()
    {
        auto it = lru_.end();
        while (it != lru_.begin() &&
               (lru_.size() > maxEntries_ ||
                (bytes_ > maxBytes_ && lru_.size() > 1))) {
            if ((--it)->pending)
                continue;
            bytes_ -= it->bytes;
            it = lru_.erase(it); // outstanding shared_ptrs stay valid
        }
    }

    mutable std::mutex mutex_;
    std::list<Entry> lru_; // front = most recently used
    size_t bytes_ = 0;
    uint64_t lastId_ = 0;
    CacheCounters counters_;
    const size_t maxEntries_;
    const size_t maxBytes_;
};

} // namespace unintt

#endif // UNINTT_UTIL_LRU_CACHE_HH
