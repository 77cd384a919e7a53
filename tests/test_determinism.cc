/**
 * @file
 * Determinism of the host-parallel execution layer: the same transform
 * must produce bit-identical outputs and an identical simulated
 * timeline regardless of
 *
 *   - how many host threads execute the functional work (1, 2, 8),
 *   - whether the plan/twiddle caches are cold or warm, and
 *   - which host knobs (thread count, kernel acceleration path) an
 *     analytic, plain or resilient run was given.
 *
 * The host thread count and the cache hit counters are *allowed* to
 * differ — they live in SimReport::hostExecStats(), which is excluded
 * from the comparisons here on purpose.
 */

#include <gtest/gtest.h>

#include "field/babybear.hh"
#include "field/bn254.hh"
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

/** Output bytes and report of one fault-free resilient run. */
template <NttField F>
std::pair<std::vector<F>, SimReport>
resilientRun(const UniNttEngine<F> &engine, const std::vector<F> &input,
             unsigned gpus, NttDirection dir)
{
    FaultInjector quiet(FaultModel::none());
    auto data = DistributedVector<F>::fromGlobal(input, gpus);
    Result<SimReport> r = dir == NttDirection::Forward
                              ? engine.forwardResilient(data, quiet)
                              : engine.inverseResilient(data, quiet);
    EXPECT_TRUE(r.ok()) << r.status().toString();
    return {data.toGlobal(), r.ok() ? r.value() : SimReport{}};
}

/**
 * Host knobs never reach the simulated timeline: for every machine
 * size, overlap mode and direction, engines differing only in host
 * threads and acceleration path must report exactly what a scalar,
 * single-threaded reference reports — analytic and plain functional
 * runs its analytic timeline, fault-free resilient runs its resilient
 * timeline — and produce its output bytes.
 */
template <NttField F>
void
expectHostKnobsInert(unsigned log_n)
{
    const auto input = randomVector<F>(size_t{1} << log_n, 7 + log_n);
    for (unsigned gpus : {1u, 4u, 8u}) {
        const auto sys = makeDgxA100(gpus);
        for (bool overlap : {false, true}) {
            for (auto dir : {NttDirection::Forward, NttDirection::Inverse}) {
                SCOPED_TRACE(std::string(F::kName) + " logN=" +
                             std::to_string(log_n) + " gpus=" +
                             std::to_string(gpus) + " overlap=" +
                             std::to_string(overlap) + " " +
                             toString(dir));
                UniNttConfig ref_cfg;
                ref_cfg.overlapComm = overlap;
                ref_cfg.hostThreads = 1;
                ref_cfg.isaPath = IsaPath::Scalar;
                const UniNttEngine<F> ref(sys, ref_cfg);
                const SimReport ref_analytic = ref.analyticRun(log_n, dir);
                const auto [ref_bytes, ref_resilient] =
                    resilientRun(ref, input, gpus, dir);

                for (unsigned threads : {1u, 4u}) {
                    for (IsaPath isa : {IsaPath::Scalar, IsaPath::Auto}) {
                        SCOPED_TRACE("threads=" + std::to_string(threads) +
                                     " isa=" + isaPathName(isa));
                        UniNttConfig cfg = ref_cfg;
                        cfg.hostThreads = threads;
                        cfg.isaPath = isa;
                        const UniNttEngine<F> engine(sys, cfg);
                        expectSimIdentical(engine.analyticRun(log_n, dir),
                                           ref_analytic);

                        auto data =
                            DistributedVector<F>::fromGlobal(input, gpus);
                        const SimReport plain =
                            dir == NttDirection::Forward
                                ? engine.forward(data)
                                : engine.inverse(data);
                        expectSimIdentical(plain, ref_analytic);
                        EXPECT_TRUE(data.toGlobal() == ref_bytes)
                            << "plain output bytes differ";

                        const auto [bytes, resilient] =
                            resilientRun(engine, input, gpus, dir);
                        expectSimIdentical(resilient, ref_resilient);
                        EXPECT_TRUE(bytes == ref_bytes)
                            << "resilient output bytes differ";
                    }
                }
            }
        }
    }
}

TEST(Determinism, HostKnobsNeverMoveTheSimulatedTimeline)
{
    for (unsigned log_n : {12u, 16u}) {
        expectHostKnobsInert<Goldilocks>(log_n);
        expectHostKnobsInert<BabyBear>(log_n);
    }
    for (unsigned log_n : {12u, 15u})
        expectHostKnobsInert<Bn254Fr>(log_n);
}

} // namespace
} // namespace unintt
