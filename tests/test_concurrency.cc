/**
 * @file
 * Concurrency stress coverage for the shared host-side caches and the
 * logger. These are the components the proving service and the host
 * thread pool hammer from many threads at once; the tests race real
 * threads through them and assert the invariants that matter: one
 * build and one shared object per key (the single-flight contract of
 * util/lru_cache.hh), conserved hit+miss accounting, every reader sees
 * a complete table, and log lines never interleave characters. The
 * ThreadSanitizer tree of scripts/ci.sh runs this binary to catch data
 * races.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "field/goldilocks.hh"
#include "ntt/twiddle_cache.hh"
#include "sim/multi_gpu.hh"
#include "unintt/abft.hh"
#include "unintt/cache.hh"
#include "unintt/engine.hh"
#include "util/logging.hh"
#include "util/lru_cache.hh"

using namespace unintt;

namespace {

using F = Goldilocks;

constexpr unsigned kThreads = 8;
constexpr unsigned kItersPerThread = 200;

/** How long a gated test waits before it calls a stall a failure. */
constexpr auto kTimeout = std::chrono::seconds(30);

/** Run @p fn on kThreads threads and join them all. */
template <typename Fn>
void
race(Fn fn)
{
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back(fn, t);
    for (auto &th : threads)
        th.join();
}

/**
 * The first object handed out per key slot; every later lookup of the
 * slot must return the same one. The racing caches below are sized
 * above their key counts, so nothing is evicted and one key means one
 * object for the whole run.
 */
template <size_t N>
class SameObjectPerKey
{
  public:
    bool
    matches(size_t slot, const void *p)
    {
        const void *first = nullptr;
        return slots_[slot].compare_exchange_strong(first, p) ||
               first == p;
    }

  private:
    std::array<std::atomic<const void *>, N> slots_{};
};

/** Holds a build pending until the test opens it. */
struct Gate
{
    std::promise<void> opener;
    std::shared_future<void> opened = opener.get_future().share();
    std::promise<void> arrival;
    std::future<void> arrived = arrival.get_future();

    /** Called from the build: announce it, then block until open(). */
    void
    pass()
    {
        arrival.set_value();
        opened.wait();
    }

    void open() { opener.set_value(); }

    /** True once the build has reached the gate (or kTimeout passed). */
    bool
    reached()
    {
        return arrived.wait_for(kTimeout) == std::future_status::ready;
    }
};

/** Poll @p pred until it holds; false if kTimeout passes first. */
template <typename Pred>
bool
eventually(Pred pred)
{
    const auto deadline = std::chrono::steady_clock::now() + kTimeout;
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/** A cached value with a byte footprint. */
struct Blob
{
    size_t bytes;
    size_t sizeBytes() const { return bytes; }
};

/** Whether a get() of @p key was served without building. */
bool
hitOf(LruCache<int, Blob> &cache, int key)
{
    bool hit = false;
    cache.get(key, [] { return Blob{0}; }, &hit);
    return hit;
}

using Shared = std::pair<std::shared_ptr<const int>, bool>;

/** A get() of @p key whose build must never run (a waiter's). */
Shared
waiterGet(LruCache<int, int> &cache, int key)
{
    bool hit = false;
    auto p = cache.get(
        key,
        []() -> int {
            ADD_FAILURE() << "a waiter ran the build";
            return -1;
        },
        &hit);
    return {p, hit};
}

} // namespace

TEST(ConcurrentCaches, TwiddleCacheSharedTablesStayCoherent)
{
    TwiddleCache<F> cache(8);
    SameObjectPerKey<8> same;
    std::atomic<uint64_t> checked{0};
    race([&](unsigned t) {
        for (unsigned i = 0; i < kItersPerThread; ++i) {
            const unsigned size_idx = (t + i) % 4;
            const size_t n = size_t{1} << (6 + size_idx);
            const NttDirection dir =
                (i % 2) ? NttDirection::Inverse : NttDirection::Forward;
            auto table = cache.get(n, dir);
            ASSERT_NE(table, nullptr);
            ASSERT_TRUE(same.matches(size_idx * 2 + i % 2, table.get()));
            // A reader must never observe a half-built table.
            ASSERT_EQ(table->n(), n);
            ASSERT_EQ(table->powers().size(), n / 2);
            ASSERT_EQ((*table)[0], F::one());
            checked.fetch_add(1, std::memory_order_relaxed);
        }
    });
    EXPECT_EQ(checked.load(), uint64_t{kThreads} * kItersPerThread);
    const CacheCounters c = cache.counters();
    // Every get() was either a hit or a miss — nothing lost to a race —
    // and each of the 4 sizes x 2 directions was built exactly once.
    EXPECT_EQ(c.hits + c.misses, uint64_t{kThreads} * kItersPerThread);
    EXPECT_EQ(c.misses, 8u);
    EXPECT_EQ(cache.size(), 8u);
}

TEST(ConcurrentCaches, TwiddleSlabCacheUnderContention)
{
    TwiddleSlabCache<F> cache(8);
    SameObjectPerKey<3> same;
    race([&](unsigned t) {
        for (unsigned i = 0; i < kItersPerThread; ++i) {
            const unsigned size_idx = (t + i) % 3;
            auto slabs = cache.get(size_t{1} << (6 + size_idx),
                                   NttDirection::Forward);
            ASSERT_NE(slabs, nullptr);
            ASSERT_TRUE(same.matches(size_idx, slabs.get()));
            ASSERT_GT(slabs->sizeBytes(), 0u);
        }
    });
    const CacheCounters c = cache.counters();
    EXPECT_EQ(c.hits + c.misses, uint64_t{kThreads} * kItersPerThread);
    EXPECT_EQ(c.misses, 3u);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(ConcurrentCaches, PlanCacheServesIdenticalPlans)
{
    PlanCache cache(16);
    const MultiGpuSystem sys = makeDgxA100(4);
    std::array<std::string, 3> expected;
    for (unsigned k = 0; k < 3; ++k)
        expected[k] = planNttWithTile(10 + k, sys, sizeof(F), 0).toString();
    race([&](unsigned t) {
        for (unsigned i = 0; i < kItersPerThread / 2; ++i) {
            const unsigned logN = 10 + (t + i) % 3;
            NttPlan plan = cache.get(logN, sys, sizeof(F), 0);
            ASSERT_EQ(plan.logN, logN);
            ASSERT_EQ(plan.numGpus, 4u);
            ASSERT_EQ(plan.toString(), expected[logN - 10]);
        }
    });
    const CacheCounters c = cache.counters();
    EXPECT_EQ(c.hits + c.misses,
              uint64_t{kThreads} * (kItersPerThread / 2));
    EXPECT_EQ(c.misses, 3u);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(ConcurrentCaches, ScheduleCacheUnderContention)
{
    ScheduleCache cache(16);
    PlanCache plans(16);
    SameObjectPerKey<4> same;
    const MultiGpuSystem sys = makeDgxA100(4);
    const UniNttConfig cfg = UniNttConfig::allOn();
    const CostConstants costs;
    race([&](unsigned t) {
        for (unsigned i = 0; i < kItersPerThread / 4; ++i) {
            const unsigned size_idx = (t + i) % 2;
            NttPlan plan = plans.get(10 + size_idx, sys, sizeof(F), 0);
            auto sched = cache.get(
                plan, sys,
                (i % 2) ? NttDirection::Inverse : NttDirection::Forward,
                sizeof(F), cfg, costs, 1);
            ASSERT_NE(sched, nullptr);
            ASSERT_TRUE(same.matches(size_idx * 2 + i % 2, sched.get()));
        }
    });
    const CacheCounters c = cache.counters();
    EXPECT_EQ(c.hits + c.misses,
              uint64_t{kThreads} * (kItersPerThread / 4));
    EXPECT_EQ(c.misses, 4u); // 2 sizes x 2 directions
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(plans.counters().misses, 2u);
}

TEST(LruCacheContract, OtherKeysNeverWaitOnAPendingBuild)
{
    LruCache<int, int> cache(8);
    Gate gate;
    auto first = std::async(std::launch::async, [&] {
        return cache.get(1, [&] {
            gate.pass();
            return 1;
        });
    });
    const bool reached = gate.reached();
    auto other = std::async(std::launch::async, [&] {
        return cache.get(2, [] { return 2; });
    });
    const bool other_done =
        other.wait_for(kTimeout) == std::future_status::ready;
    gate.open();
    EXPECT_TRUE(reached);
    EXPECT_TRUE(other_done) << "a lookup of another key waited on the gate";
    EXPECT_EQ(*other.get(), 2);
    EXPECT_EQ(*first.get(), 1);
    EXPECT_EQ(cache.counters().misses, 2u);
}

TEST(LruCacheContract, WaitersReceiveTheFirstCallersPointer)
{
    LruCache<int, int> cache(8);
    Gate gate;
    auto first = std::async(std::launch::async, [&] {
        bool hit = true;
        auto p = cache.get(
            7,
            [&] {
                gate.pass();
                return 7;
            },
            &hit);
        return Shared{p, hit};
    });
    const bool reached = gate.reached();
    std::vector<std::future<Shared>> waiters;
    for (unsigned t = 0; t < kThreads; ++t)
        waiters.push_back(std::async(std::launch::async,
                                     [&] { return waiterGet(cache, 7); }));
    // A lookup counts its hit before it waits, so once every waiter is
    // counted they are all parked on the pending entry.
    const bool all_waiting =
        eventually([&] { return cache.counters().hits == kThreads; });
    gate.open();
    EXPECT_TRUE(reached);
    EXPECT_TRUE(all_waiting);

    const auto [built, built_hit] = first.get();
    EXPECT_FALSE(built_hit);
    for (auto &w : waiters) {
        const auto [p, hit] = w.get();
        EXPECT_EQ(p, built);
        EXPECT_TRUE(hit);
    }
    EXPECT_EQ(cache.counters().misses, 1u);
    EXPECT_EQ(cache.counters().hits, kThreads);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheContract, ThrowingBuildLeavesNoEntry)
{
    LruCache<int, int> cache(8);
    cache.get(1, [] { return 1; });
    const size_t before = cache.size();

    Gate gate;
    auto first = std::async(std::launch::async, [&] {
        return cache.get(2, [&]() -> int {
            gate.pass();
            throw std::runtime_error("build failed");
        });
    });
    const bool reached = gate.reached();
    std::vector<std::future<Shared>> waiters;
    for (unsigned t = 0; t < kThreads; ++t)
        waiters.push_back(std::async(std::launch::async,
                                     [&] { return waiterGet(cache, 2); }));
    const bool all_waiting =
        eventually([&] { return cache.counters().hits == kThreads; });
    gate.open();
    EXPECT_TRUE(reached);
    EXPECT_TRUE(all_waiting);

    EXPECT_THROW(first.get(), std::runtime_error);
    for (auto &w : waiters)
        EXPECT_THROW(w.get(), std::runtime_error);
    EXPECT_EQ(cache.size(), before);

    // The failure is not cached: the next get() builds again.
    bool hit = true;
    EXPECT_EQ(*cache.get(2, [] { return 22; }, &hit), 22);
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.counters().misses, 3u);
}

TEST(LruCacheContract, ByteBudgetEvictsTheOldestButKeepsOne)
{
    LruCache<int, Blob> cache(8, 100);
    const auto first = cache.get(1, [] { return Blob{60}; });
    cache.get(2, [] { return Blob{30}; });
    EXPECT_EQ(cache.size(), 2u);

    // 120 bytes > 100: the least recently used entry (key 1) goes.
    cache.get(3, [] { return Blob{30}; });
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(hitOf(cache, 2));
    EXPECT_TRUE(hitOf(cache, 3));
    EXPECT_EQ(first->bytes, 60u); // handed-out pointers stay valid

    // A value over the whole budget evicts the rest but stays.
    cache.get(4, [] { return Blob{500}; });
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(hitOf(cache, 4));
}

TEST(LruCacheContract, ClearDuringABuildKeepsItsResultAndTheByteCount)
{
    LruCache<int, Blob> cache(8, 100);
    Gate gate;
    auto first = std::async(std::launch::async, [&] {
        return cache.get(1, [&] {
            gate.pass();
            return Blob{60};
        });
    });
    const bool reached = gate.reached();
    cache.clear();
    gate.open();
    EXPECT_TRUE(reached);
    EXPECT_EQ(first.get()->bytes, 60u);
    EXPECT_EQ(cache.size(), 0u);

    // Had the dropped build been counted, 60 + 60 + 30 bytes would
    // exceed the budget and evict one of these.
    cache.get(2, [] { return Blob{60}; });
    cache.get(3, [] { return Blob{30}; });
    EXPECT_EQ(cache.size(), 2u);
}

TEST(AbftCoefficientCacheKey, EveryCheckedStepIsPartOfTheKey)
{
    const MultiGpuSystem sys = makeDgxA100(4);
    const unsigned logN = 12;
    const NttDirection dir = NttDirection::Inverse;
    ScheduleOptions opts;
    opts.resilient = true;
    opts.abft = true;
    const StageSchedule sched = compileSchedule(
        planNttWithTile(logN, sys, sizeof(F), 0), sys, dir, sizeof(F),
        UniNttConfig::allOn(), CostConstants{}, opts);

    // The same schedule with one checked step covering a stage less.
    StageSchedule other = sched;
    auto st = std::find_if(
        other.steps.begin(), other.steps.end(), [](const ScheduleStep &s) {
            return abftChecked(s) && s.sEnd > s.sBegin + 1;
        });
    ASSERT_NE(st, other.steps.end());
    st->sEnd--;

    const auto slabs = cachedTwiddleSlabs<F>(size_t{1} << logN, dir);
    AbftCoefficientCache<F> cache(4);
    const auto a = cache.get(sched, *slabs, 7, 1);
    const auto b = cache.get(other, *slabs, 7, 1);
    EXPECT_NE(a, b);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.get(sched, *slabs, 7, 1), a);
    EXPECT_EQ(cache.counters().misses, 2u);
    EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(ConcurrentExecution, OverlapCountersSurviveConcurrentEngines)
{
    // Regression for the schedule/slab counter race in the overlapped
    // path: the exchange-chunk counter is bumped from inside thread
    // pool tasks while the pool is NOT quiesced, so it must be atomic.
    // Racing whole engines (each itself running a threaded wave
    // dispatch) through the shared process-wide caches gives the
    // sanitizer tree a torn-counter target, and the per-report
    // invariant below catches lost increments in the normal tree: a
    // 4-GPU forward has logMg = 2 exchange steps, each split into 2
    // chunks, so every report must count exactly 4 exchange chunks
    // and a positive wave count.
    const MultiGpuSystem sys = makeDgxA100(4);
    const size_t n = size_t{1} << 12;
    std::vector<F> input(n);
    for (size_t i = 0; i < n; ++i)
        input[i] = F::fromU64(i * 2654435761u + 3);

    std::atomic<uint64_t> total_chunks{0};
    race([&](unsigned t) {
        UniNttConfig cfg = UniNttConfig::allOn();
        cfg.hostThreads = 1 + t % 4;
        UniNttEngine<F> engine(sys, cfg);
        for (unsigned i = 0; i < kItersPerThread / 8; ++i) {
            auto data = DistributedVector<F>::fromGlobal(input, 4);
            const SimReport r = engine.forward(data);
            const HostExecStats &hx = r.hostExecStats();
            ASSERT_EQ(hx.exchangeChunks, 4u);
            ASSERT_GT(hx.overlapWaves, 0u);
            total_chunks.fetch_add(hx.exchangeChunks,
                                   std::memory_order_relaxed);
        }
    });
    EXPECT_EQ(total_chunks.load(),
              uint64_t{kThreads} * (kItersPerThread / 8) * 4);
}

TEST(ConcurrentExecution, OverlappingResilientRunsOnOneEngineStayExact)
{
    // The engine lends its host buffers (ResilientScratch) to one
    // resilient run at a time; an overlapping run allocates its own.
    // Threads racing faulty resilient forwards through one engine must
    // all get the exact transform. Spot checks stay off: their seed
    // sequence is per engine and unsynchronised by design.
    const MultiGpuSystem sys = makeDgxA100(4);
    const UniNttEngine<F> engine(sys);
    const size_t n = size_t{1} << 12;
    std::vector<F> input(n);
    for (size_t i = 0; i < n; ++i)
        input[i] = F::fromU64(i * 2654435761u + 5);
    const std::vector<F> expect = [&] {
        auto data = DistributedVector<F>::fromGlobal(input, 4);
        engine.forward(data);
        return data.toGlobal();
    }();
    ResilienceConfig rc;
    rc.spotChecks = 0;

    std::atomic<unsigned> exact{0};
    race([&](unsigned t) {
        for (unsigned i = 0; i < 4; ++i) {
            FaultModel m;
            m.seed = mix64(t * 16 + i);
            m.transientExchangeRate = 0.2;
            m.bitFlipRate = 0.2;
            m.computeBitFlipRate = 0.05;
            FaultInjector inj(m);
            auto data = DistributedVector<F>::fromGlobal(input, 4);
            const Result<SimReport> r = engine.forwardResilient(data, inj, rc);
            if (r.ok() && data.toGlobal() == expect)
                exact.fetch_add(1, std::memory_order_relaxed);
            else if (r.ok())
                ADD_FAILURE() << "thread " << t << " run " << i
                              << " returned wrong bytes";
        }
    });
    EXPECT_GT(exact.load(), kThreads * 4 / 2);
}

TEST(ConcurrentLogging, LinesNeverInterleaveAndTagsAttribute)
{
    Logger &log = Logger::instance();
    const LogLevel old_level = log.level();
    log.setLevel(LogLevel::Inform);

    std::mutex mu;
    std::vector<std::string> lines;
    log.setSink([&](const std::string &line) {
        std::lock_guard<std::mutex> lk(mu);
        lines.push_back(line);
    });

    race([&](unsigned t) {
        ScopedLogTag tag("tenant" + std::to_string(t));
        for (unsigned i = 0; i < 50; ++i)
            inform("thread %u message %u tail", t, i);
    });

    log.setSink({});
    log.setLevel(old_level);

    ASSERT_EQ(lines.size(), size_t{kThreads} * 50);
    for (const std::string &line : lines) {
        // A complete line: exactly one attribution tag and an intact
        // body — torn writes would break either.
        EXPECT_NE(line.find("[tenant"), std::string::npos) << line;
        EXPECT_NE(line.find("tail"), std::string::npos) << line;
        EXPECT_EQ(line.find("thread"), line.rfind("thread")) << line;
    }
}

TEST(ConcurrentLogging, ScopedTagsNestAndRestorePerThread)
{
    race([&](unsigned t) {
        const std::string outer = "outer" + std::to_string(t);
        ScopedLogTag tag(outer);
        for (unsigned i = 0; i < 100; ++i) {
            ASSERT_EQ(ScopedLogTag::current(), outer);
            {
                ScopedLogTag inner("inner");
                ASSERT_EQ(ScopedLogTag::current(), "inner");
            }
            ASSERT_EQ(ScopedLogTag::current(), outer);
        }
    });
    EXPECT_EQ(ScopedLogTag::current(), "");
}
