/**
 * @file
 * Work-stealing thread pool for the host-side functional execution.
 *
 * The simulator computes every simulated GPU's butterflies on the host;
 * the pool lets those per-GPU (and per-tile) loops genuinely run
 * concurrently. Each worker owns a deque: it pops its own work LIFO and
 * steals FIFO from the other workers when it runs dry, so uneven task
 * ranges rebalance without a central queue bottleneck.
 *
 * Determinism contract: parallelFor() invokes the body exactly once per
 * index and joins before returning. Callers hand it bodies whose writes
 * are disjoint across indices, so the result is bit-identical for every
 * thread count — scheduling only decides who computes, never what.
 */

#ifndef UNINTT_UTIL_THREAD_POOL_HH
#define UNINTT_UTIL_THREAD_POOL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace unintt {

/** Work-stealing pool; one instance is shared process-wide (global()). */
class ThreadPool
{
  public:
    /** Spawn a pool with @p workers worker threads (may be 0). */
    explicit ThreadPool(unsigned workers);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution lanes: the workers plus the calling thread. */
    unsigned lanes() const { return static_cast<unsigned>(queues_.size()) + 1; }

    /**
     * Run @p range_fn over disjoint contiguous subranges covering
     * [0, count), using at most @p max_lanes threads (0 = all lanes).
     * The calling thread participates and the call returns only after
     * every index has been processed (a barrier). Ranges are oversplit
     * relative to the lane count so stealing can rebalance uneven work.
     */
    void parallelFor(size_t count, unsigned max_lanes,
                     const std::function<void(size_t, size_t)> &range_fn);

    /** The shared pool (created on first use with defaultLanes()). */
    static ThreadPool &global();

    /**
     * Resize the shared pool to @p lanes execution lanes (>= 1). Not
     * safe while other threads are inside the old pool; call between
     * runs (CLI startup, bench sweep points).
     */
    static void setGlobalThreads(unsigned lanes);

    /** Lane count the shared pool is (or would be) created with. */
    static unsigned defaultLanes();

  private:
    struct WorkQueue
    {
        std::deque<std::function<void()>> tasks;
        std::mutex mutex;
    };

    void workerLoop(unsigned self);
    void submit(std::function<void()> task);
    /** Pop own work or steal someone else's; false if nothing found. */
    bool tryRunOne(unsigned self);
    /** Steal a task from any queue (for non-worker helper threads). */
    bool tryRunOneExternal();

    std::vector<std::unique_ptr<WorkQueue>> queues_;
    std::vector<std::thread> threads_;
    std::mutex sleepMutex_;
    std::condition_variable sleepCv_;
    std::atomic<uint64_t> pending_{0};
    std::atomic<uint64_t> nextQueue_{0};
    std::atomic<bool> stop_{false};
};

/**
 * Slices to cut each of @p units independent work units into, each
 * unit @p width independent elements wide: enough to give every one of
 * @p lanes host lanes about two slices when the units are fewer than
 * the lanes, never more than @p width; otherwise 1.
 */
constexpr uint64_t
laneSlices(uint64_t units, uint64_t width, unsigned lanes)
{
    if (lanes <= 1 || units >= lanes)
        return 1;
    return std::min<uint64_t>(width, (2ULL * lanes + units - 1) / units);
}

/**
 * Convenience wrapper used by the engines: run @p fn(i) for i in
 * [0, count) on the shared pool with at most @p max_lanes lanes.
 * Runs inline (no pool, no threads spawned) when a single lane is
 * requested, there is only one index, or the estimated total work
 * @p count * @p work_per_index is too small to amortize the fork/join —
 * the output is identical either way, only the schedule changes.
 */
template <typename Fn>
void
hostParallelFor(size_t count, uint64_t work_per_index, unsigned max_lanes,
                Fn &&fn)
{
    constexpr uint64_t kMinParallelWork = 1ULL << 14;
    if (count == 0)
        return;
    const bool serial = max_lanes == 1 || count == 1 ||
                        static_cast<uint64_t>(count) * work_per_index <
                            kMinParallelWork;
    if (serial) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    ThreadPool::global().parallelFor(
        count, max_lanes, [&fn](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                fn(i);
        });
}

} // namespace unintt

#endif // UNINTT_UTIL_THREAD_POOL_HH
