/**
 * @file
 * Determinism of the host-parallel execution layer: the same transform
 * must produce bit-identical outputs and an identical simulated
 * timeline regardless of
 *
 *   - how many host threads execute the functional work (1, 2, 8), and
 *   - whether the plan/twiddle caches are cold or warm.
 *
 * The host thread count and the cache hit counters are *allowed* to
 * differ — they live in SimReport::hostExecStats(), which is excluded
 * from the comparisons here on purpose.
 */

#include <gtest/gtest.h>

#include "field/babybear.hh"
#include "field/goldilocks.hh"
#include "unintt/cache.hh"
#include "unintt/engine.hh"
#include "util/random.hh"

namespace unintt {
namespace {

// Large enough that the parallel path actually engages (the pool is
// bypassed below ~2^14 elements of work) on a 4-GPU decomposition.
constexpr unsigned kLogN = 16;
constexpr unsigned kGpus = 4;

template <NttField F>
std::vector<F>
randomVector(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<F> v(n);
    for (auto &e : v)
        e = F::fromU64(rng.next());
    return v;
}

/**
 * The simulated content of two reports — phases, counters, seconds,
 * peak memory — excluding the host-execution section, which records
 * thread counts and cache hits and may legitimately differ.
 */
void
expectSimIdentical(const SimReport &a, const SimReport &b)
{
    ASSERT_EQ(a.phases().size(), b.phases().size());
    for (size_t i = 0; i < a.phases().size(); ++i) {
        const auto &x = a.phases()[i];
        const auto &y = b.phases()[i];
        SCOPED_TRACE("phase " + std::to_string(i) + " (" + x.name + ")");
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.seconds, y.seconds);
        EXPECT_EQ(x.hiddenSeconds, y.hiddenSeconds);
        EXPECT_EQ(x.kernel.fieldMuls, y.kernel.fieldMuls);
        EXPECT_EQ(x.kernel.fieldAdds, y.kernel.fieldAdds);
        EXPECT_EQ(x.kernel.butterflies, y.kernel.butterflies);
        EXPECT_EQ(x.kernel.globalReadBytes, y.kernel.globalReadBytes);
        EXPECT_EQ(x.kernel.globalWriteBytes, y.kernel.globalWriteBytes);
        EXPECT_EQ(x.kernel.smemBytes, y.kernel.smemBytes);
        EXPECT_EQ(x.kernel.smemBankConflicts,
                  y.kernel.smemBankConflicts);
        EXPECT_EQ(x.kernel.shuffles, y.kernel.shuffles);
        EXPECT_EQ(x.kernel.syncs, y.kernel.syncs);
        EXPECT_EQ(x.kernel.kernelLaunches, y.kernel.kernelLaunches);
        EXPECT_EQ(x.comm.bytesPerGpu, y.comm.bytesPerGpu);
        EXPECT_EQ(x.comm.messages, y.comm.messages);
        EXPECT_EQ(x.comm.retries, y.comm.retries);
    }
    EXPECT_EQ(a.peakDeviceBytes(), b.peakDeviceBytes());
}

template <NttField F>
struct RunOutput
{
    std::vector<F> forward;
    std::vector<F> roundTrip;
    SimReport forwardReport;
};

template <NttField F>
RunOutput<F>
runWith(const std::vector<F> &input, unsigned host_threads)
{
    UniNttConfig cfg;
    cfg.hostThreads = host_threads;
    UniNttEngine<F> engine(makeDgxA100(kGpus), cfg);

    RunOutput<F> out;
    auto dist = DistributedVector<F>::fromGlobal(input, kGpus);
    out.forwardReport = engine.forward(dist);
    out.forward = dist.toGlobal();
    engine.inverse(dist);
    out.roundTrip = dist.toGlobal();
    return out;
}

template <typename F>
class Determinism : public ::testing::Test
{
};

using DeterminismFields = ::testing::Types<Goldilocks, BabyBear>;
TYPED_TEST_SUITE(Determinism, DeterminismFields);

TYPED_TEST(Determinism, ThreadCountNeverChangesOutputsOrTimeline)
{
    using F = TypeParam;
    const auto input = randomVector<F>(size_t{1} << kLogN, 42);

    const auto serial = runWith<F>(input, 1);
    EXPECT_EQ(serial.roundTrip, input);

    for (unsigned threads : {2u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " host threads");
        const auto parallel = runWith<F>(input, threads);
        EXPECT_EQ(parallel.forward, serial.forward);
        EXPECT_EQ(parallel.roundTrip, input);
        expectSimIdentical(parallel.forwardReport,
                           serial.forwardReport);
    }
}

TYPED_TEST(Determinism, ColdAndWarmCachesAgree)
{
    using F = TypeParam;
    const auto input = randomVector<F>(size_t{1} << kLogN, 43);

    PlanCache::global().clear();
    TwiddleCache<F>::global().clear();
    TwiddleSlabCache<F>::global().clear();

    // Cold: the slab cache misses and fills from the (also cold)
    // twiddle-table cache. Warm: the slab hit short-circuits the
    // table lookup entirely, so the table counters stay untouched.
    const auto cold = runWith<F>(input, 2);
    const auto &cold_hx = cold.forwardReport.hostExecStats();
    EXPECT_EQ(cold_hx.planCacheMisses, 1u);
    EXPECT_EQ(cold_hx.twiddleSlabMisses, 1u);
    EXPECT_EQ(cold_hx.twiddleCacheMisses, 1u);

    const auto warm = runWith<F>(input, 2);
    const auto &warm_hx = warm.forwardReport.hostExecStats();
    EXPECT_EQ(warm_hx.planCacheHits, 1u);
    EXPECT_EQ(warm_hx.twiddleSlabHits, 1u);
    EXPECT_EQ(warm_hx.twiddleCacheHits + warm_hx.twiddleCacheMisses,
              0u);

    EXPECT_EQ(warm.forward, cold.forward);
    EXPECT_EQ(warm.roundTrip, input);
    expectSimIdentical(warm.forwardReport, cold.forwardReport);
}

} // namespace
} // namespace unintt
