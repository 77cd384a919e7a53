#include "util/thread_pool.hh"

#include <memory>
#include <mutex>

#include "util/logging.hh"

namespace unintt {

namespace {

/** Ranges a fork cuts per lane it may use. */
constexpr size_t kRangesPerLane = 4;

// The dispenser word holds a fork's epoch (bits 32-63), its helper
// workers (bits 16-31) and its ranges left (bits 0-15), so a claim is
// one compare-and-swap that succeeds only on the fork it read.
constexpr uint64_t kField = 0xFFFF;

/** One step of a spin-wait: the CPU's pause hint where it has one. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

} // namespace

ThreadPool::ThreadPool(unsigned workers)
{
    // Helpers and ranges (kRangesPerLane per lane) fit 16 bits each.
    UNINTT_ASSERT((workers + 1ULL) * kRangesPerLane <= kField,
                  "too many pool workers");
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true);
    // A new epoch with no helpers wakes every worker to see stop_.
    dispenser_.store(((dispenser_.load() >> 32) + 1) << 32);
    dispenser_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::workerLoop(unsigned self)
{
    uint64_t seen = 0;
    bool enlisted = true;
    while (!stop_.load(std::memory_order_relaxed)) {
        // A worker the last fork's max_lanes left out parks at once:
        // the forks of one run ask for the same lanes.
        seen = awaitFork(seen, enlisted ? kSpinWindow
                                        : std::chrono::microseconds{0});
        enlisted = self < (seen >> 16 & kField);
        if (enlisted)
            runRanges(seen);
    }
}

uint64_t
ThreadPool::awaitFork(uint64_t seen, std::chrono::microseconds window)
{
    const auto until = std::chrono::steady_clock::now() + window;
    for (unsigned spin = 1;; ++spin) {
        const uint64_t d = dispenser_.load(std::memory_order_acquire);
        if (d >> 32 != seen >> 32)
            return d;
        if (spin % 64 != 0 || std::chrono::steady_clock::now() < until)
            cpuRelax();
        else
            dispenser_.wait(d); // parked until a fork notifies
    }
}

void
ThreadPool::runRanges(uint64_t ticket)
{
    uint64_t d = ticket;
    while (d >> 32 == ticket >> 32 && (d & kField) > 0) {
        if (!dispenser_.compare_exchange_weak(d, d - 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed))
            continue;
        // The claim makes this fork's job slot visible, and the fork
        // cannot end before this range is done.
        const size_t r = ranges_ - (d & kField);
        (*body_)(count_ * r / ranges_, count_ * (r + 1) / ranges_);
        done_.fetch_add(1, std::memory_order_release);
        d = dispenser_.load(std::memory_order_relaxed);
    }
}

void
ThreadPool::parallelFor(size_t count, unsigned max_lanes,
                        const std::function<void(size_t, size_t)> &range_fn)
{
    if (count == 0)
        return;
    const unsigned L =
        max_lanes == 0 ? lanes() : std::min(max_lanes, lanes());
    if (L <= 1 || count == 1 ||
        busy_.exchange(true, std::memory_order_acquire)) {
        range_fn(0, count);
        return;
    }
    body_ = &range_fn;
    count_ = count;
    ranges_ = std::min(count, size_t{L} * kRangesPerLane);
    done_.store(0, std::memory_order_relaxed);
    const uint64_t epoch =
        (dispenser_.load(std::memory_order_relaxed) >> 32) + 1;
    const uint64_t ticket = epoch << 32 | uint64_t{L - 1} << 16 | ranges_;
    dispenser_.store(ticket, std::memory_order_release);
    dispenser_.notify_all();
    runRanges(ticket);
    while (done_.load(std::memory_order_acquire) != ranges_)
        cpuRelax();
    busy_.store(false, std::memory_order_release);
}

namespace {
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
} // namespace

unsigned
ThreadPool::defaultLanes()
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 4;
    return std::clamp(hw, 1u, 16u);
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lk(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(defaultLanes() - 1);
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(unsigned lanes)
{
    UNINTT_ASSERT(lanes >= 1, "need at least one lane");
    std::lock_guard<std::mutex> lk(g_pool_mutex);
    g_pool = std::make_unique<ThreadPool>(lanes - 1);
}

} // namespace unintt
