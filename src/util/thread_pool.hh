/**
 * @file
 * Fork/join thread pool for the host-side functional execution.
 *
 * The simulator computes every simulated GPU's butterflies on the host;
 * the pool lets those per-GPU (and per-tile) loops genuinely run
 * concurrently. The pool is one team with one job slot. A fork cuts
 * its index space into a few ranges per lane behind one atomic
 * dispenser; every lane, the caller included, claims ranges by index
 * until none is left, and the caller spins until the last one is done.
 * Nothing is allocated, queued or locked per range. Between forks a
 * worker spins for kSpinWindow, so the forks of one run find it awake,
 * then parks. A fork that finds the team busy (one nested in a body,
 * or one from a second thread) runs its whole range inline.
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
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace unintt {

/** Fork/join team; one instance is shared process-wide (global()). */
class ThreadPool
{
  public:
    /**
     * How long an idle worker spins for the next fork before it parks
     * (one the last fork left out parks at once). It spans the serial
     * gaps between one proving-service job's forks and between
     * back-to-back jobs; a longer one bought no wall time and cost
     * more CPU (EXPERIMENTS.md, "A fork/join team").
     */
    static constexpr std::chrono::microseconds kSpinWindow{200};

    /** Spawn a pool with @p workers worker threads (may be 0). */
    explicit ThreadPool(unsigned workers);

    /** Wakes and joins the workers; no fork may be running. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution lanes: the workers plus the calling thread. */
    unsigned lanes() const { return static_cast<unsigned>(threads_.size()) + 1; }

    /**
     * Run @p range_fn over disjoint contiguous subranges covering
     * [0, count), using at most @p max_lanes threads (0 = all lanes).
     * The calling thread participates and the call returns only after
     * every index has been processed (a barrier). Ranges are oversplit
     * relative to the lane count so a lane that joins late, or runs a
     * slow range, leaves the rest to the others. @p range_fn must not
     * throw.
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
    void workerLoop(unsigned self);
    /**
     * The dispenser once a fork newer than @p seen is published;
     * spins for @p window, then parks.
     */
    uint64_t awaitFork(uint64_t seen, std::chrono::microseconds window);
    /** Claim and run ranges of @p ticket's fork until none is left. */
    void runRanges(uint64_t ticket);

    // The job slot: written by the fork that owns the team (busy_)
    // before it publishes the dispenser, read by a lane only after it
    // claimed one of that fork's ranges.
    const std::function<void(size_t, size_t)> *body_ = nullptr;
    size_t count_ = 0;
    size_t ranges_ = 0;
    /** The current fork's epoch, helper count and ranges left. */
    std::atomic<uint64_t> dispenser_{0};
    /** Ranges of the current fork that have finished. */
    std::atomic<size_t> done_{0};
    std::atomic<bool> busy_{false};
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
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
    constexpr uint64_t kMinParallelWork = 1ULL << 12;
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
