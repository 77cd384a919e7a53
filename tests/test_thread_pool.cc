/**
 * @file
 * The host thread pool's contract (util/thread_pool.hh): every index of
 * a fork runs exactly once, a fork uses at most max_lanes threads, a
 * fork nested in a body or issued from several threads at once
 * completes with exact results, a pool joins its workers on
 * destruction whether they spin or are parked, and the shared pool
 * keeps working across resizes. The ThreadSanitizer tree of
 * scripts/ci.sh runs this binary to catch data races.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

using namespace unintt;

namespace {

/** How long a test waits before it calls a stall a failure. */
constexpr auto kTimeout = std::chrono::seconds(30);

/** Index counts a fork is tried with: every count to 257, then sparser. */
std::vector<size_t>
forkCounts()
{
    std::vector<size_t> counts;
    for (size_t n = 1; n <= 257; ++n)
        counts.push_back(n);
    for (size_t n = 300; n < 100000; n = n * 3 / 2 + 1)
        counts.push_back(n);
    counts.push_back(100000);
    return counts;
}

/** Fork over @p count indices; true when each ran exactly once. */
bool
eachIndexOnce(ThreadPool &pool, size_t count, unsigned max_lanes)
{
    std::vector<std::atomic<uint32_t>> hits(count);
    pool.parallelFor(count, max_lanes, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &h : hits)
        if (h.load(std::memory_order_relaxed) != 1)
            return false;
    return true;
}

/** Run @p fn on its own thread; a call still running after kTimeout
 * is a hang, which ends the process, since it cannot be joined. */
template <typename Fn>
void
finishesInTime(const char *what, Fn fn)
{
    auto done = std::async(std::launch::async, fn);
    if (done.wait_for(kTimeout) != std::future_status::ready) {
        std::fprintf(stderr, "FAILED: %s hung\n", what);
        std::_Exit(1);
    }
    done.get();
}

} // namespace

TEST(ThreadPoolContract, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(3);
    ASSERT_EQ(pool.lanes(), 4u);
    for (unsigned max_lanes : {0u, 1u, 2u, pool.lanes()})
        for (size_t count : forkCounts())
            ASSERT_TRUE(eachIndexOnce(pool, count, max_lanes))
                << "count " << count << ", max_lanes " << max_lanes;
}

TEST(ThreadPoolContract, AWorkerlessPoolRunsInline)
{
    ThreadPool pool(0);
    ASSERT_EQ(pool.lanes(), 1u);
    for (size_t count : {size_t{1}, size_t{7}, size_t{1000}})
        EXPECT_TRUE(eachIndexOnce(pool, count, 0));
}

TEST(ThreadPoolContract, NoForkUsesMoreThreadsThanMaxLanes)
{
    ThreadPool pool(3);
    for (unsigned max_lanes : {1u, 2u, 3u, 0u}) {
        const size_t cap = max_lanes == 0 ? pool.lanes() : max_lanes;
        for (unsigned rep = 0; rep < 50; ++rep) {
            std::mutex mu;
            std::set<std::thread::id> ids;
            pool.parallelFor(64, max_lanes, [&](size_t, size_t) {
                {
                    std::lock_guard<std::mutex> lk(mu);
                    ids.insert(std::this_thread::get_id());
                }
                // Long enough that idle workers could join if allowed.
                const auto until = std::chrono::steady_clock::now() +
                                   std::chrono::microseconds(20);
                while (std::chrono::steady_clock::now() < until) {
                }
            });
            ASSERT_LE(ids.size(), cap) << "max_lanes " << max_lanes;
        }
    }
}

TEST(ThreadPoolContract, NestedForksComplete)
{
    // A body that forks again finds the team busy and runs inline.
    constexpr size_t kOuter = 16, kInner = 257;
    std::vector<std::atomic<uint32_t>> hits(kOuter * kInner);
    hostParallelFor(kOuter, 1ULL << 20, 0, [&](size_t i) {
        hostParallelFor(kInner, 1ULL << 20, 0, [&](size_t j) {
            hits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
        });
    });
    for (const auto &h : hits)
        ASSERT_EQ(h.load(), 1u);

    ThreadPool pool(3);
    std::vector<std::atomic<uint32_t>> local(kOuter * kInner);
    pool.parallelFor(kOuter, 0, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
            pool.parallelFor(kInner, 0, [&](size_t jb, size_t je) {
                for (size_t j = jb; j < je; ++j)
                    local[i * kInner + j].fetch_add(1);
            });
    });
    for (const auto &h : local)
        ASSERT_EQ(h.load(), 1u);
}

TEST(ThreadPoolContract, ConcurrentExternalForksAreExact)
{
    // Eight threads fork on one pool at once; whoever finds the team
    // busy runs inline, and every result is exact.
    constexpr unsigned kThreads = 8;
    constexpr size_t kCount = 4099;
    ThreadPool pool(3);
    std::atomic<unsigned> exact{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            std::vector<uint64_t> out(kCount);
            bool ok = true;
            for (unsigned rep = 0; rep < 200; ++rep) {
                pool.parallelFor(kCount, 0, [&](size_t b, size_t e) {
                    for (size_t i = b; i < e; ++i)
                        out[i] = i * i + t + rep;
                });
                for (size_t i = 0; i < kCount; ++i)
                    ok = ok && out[i] == i * i + t + rep;
            }
            if (ok)
                exact.fetch_add(1);
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(exact.load(), kThreads);
}

TEST(ThreadPoolContract, DestroyedPoolJoinsSpinningOrParkedWorkers)
{
    // Never forked: the workers are starting or still in their first
    // spin window.
    finishesInTime("destroying an unused pool", [] {
        auto pool = std::make_unique<ThreadPool>(3);
        pool.reset();
    });
    // Right after a fork the workers are still spinning.
    finishesInTime("destroying a pool right after a fork", [] {
        auto pool = std::make_unique<ThreadPool>(3);
        EXPECT_TRUE(eachIndexOnce(*pool, 1000, 0));
        pool.reset();
    });
    // Well past the spin window they are parked.
    finishesInTime("destroying a parked pool", [] {
        auto pool = std::make_unique<ThreadPool>(3);
        EXPECT_TRUE(eachIndexOnce(*pool, 1000, 0));
        std::this_thread::sleep_for(ThreadPool::kSpinWindow * 50);
        EXPECT_TRUE(eachIndexOnce(*pool, 1000, 0));
        std::this_thread::sleep_for(ThreadPool::kSpinWindow * 50);
        pool.reset();
    });
}

TEST(ThreadPoolContract, ResizedGlobalPoolKeepsWorking)
{
    constexpr size_t kCount = 10007;
    for (unsigned lanes : {1u, 4u, 2u, 3u, 1u}) {
        ThreadPool::setGlobalThreads(lanes);
        ASSERT_EQ(ThreadPool::global().lanes(), lanes);
        for (unsigned rep = 0; rep < 3; ++rep) {
            std::vector<std::atomic<uint32_t>> hits(kCount);
            hostParallelFor(kCount, 1ULL << 10, 0, [&](size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (const auto &h : hits)
                ASSERT_EQ(h.load(), 1u) << "lanes " << lanes;
        }
    }
    ThreadPool::setGlobalThreads(ThreadPool::defaultLanes());
}
