/**
 * @file
 * Tests for the baseline implementations: functional equivalence with
 * the references, and the structural timing properties the evaluation
 * relies on (naive slower than tiled, all-to-all present in four-step,
 * UniNTT beating the four-step baseline on multi-GPU).
 */

#include <gtest/gtest.h>

#include "baselines/fourstep_multigpu.hh"
#include "baselines/icicle_like.hh"
#include "baselines/naive_gpu.hh"
#include "field/goldilocks.hh"
#include "ntt/reference.hh"
#include "unintt/engine.hh"
#include "util/random.hh"

namespace unintt {
namespace {

using F = Goldilocks;

std::vector<F>
randomVector(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<F> v(n);
    for (auto &e : v)
        e = F::fromU64(rng.next());
    return v;
}

TEST(NaiveGpu, OneLaunchPerStage)
{
    NaiveGpuNtt<F> ntt(makeA100());
    auto rep = ntt.analyticRun(20, NttDirection::Forward);
    EXPECT_EQ(rep.totalKernelStats().kernelLaunches, 20u);
}

TEST(IcicleLike, FewerPassesThanNaiveStages)
{
    IcicleLikeNtt<F> icicle(makeA100());
    NaiveGpuNtt<F> naive(makeA100());
    auto a = icicle.analyticRun(24, NttDirection::Forward);
    auto b = naive.analyticRun(24, NttDirection::Forward);
    EXPECT_LT(a.totalKernelStats().kernelLaunches,
              b.totalKernelStats().kernelLaunches);
    EXPECT_LT(a.totalKernelStats().globalBytes(),
              b.totalKernelStats().globalBytes());
    EXPECT_LT(a.totalSeconds(), b.totalSeconds());
}

TEST(FourStep, ForwardMatchesNaiveDft)
{
    size_t n = 1 << 8;
    auto x = randomVector(n, 5);
    auto expect = naiveDft(x, NttDirection::Forward);
    FourStepMultiGpuNtt<F> ntt(makeDgxA100(4));
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    ntt.forward(dist);
    EXPECT_EQ(dist.toGlobal(), expect);
}

TEST(FourStep, RoundTrip)
{
    auto x = randomVector(1 << 10, 6);
    FourStepMultiGpuNtt<F> ntt(makeDgxA100(8));
    auto dist = DistributedVector<F>::fromGlobal(x, 8);
    ntt.forward(dist);
    ntt.inverse(dist);
    EXPECT_EQ(dist.toGlobal(), x);
}

TEST(FourStep, HasTwoAllToAllPhases)
{
    FourStepMultiGpuNtt<F> ntt(makeDgxA100(4));
    auto rep = ntt.analyticRun(20, NttDirection::Forward);
    unsigned alltoalls = 0;
    for (const auto &p : rep.phases())
        if (p.name.find("alltoall") != std::string::npos)
            ++alltoalls;
    EXPECT_EQ(alltoalls, 2u);
    EXPECT_GT(rep.commSeconds(), 0.0);
}

TEST(FourStep, SingleGpuHasNoWireTraffic)
{
    FourStepMultiGpuNtt<F> ntt(makeDgxA100(1));
    auto rep = ntt.analyticRun(20, NttDirection::Forward);
    EXPECT_EQ(rep.totalCommStats().bytesPerGpu, 0u);
    EXPECT_DOUBLE_EQ(rep.commSeconds(), 0.0);
}

TEST(Comparison, UniNttBeatsFourStepOnMultiGpu)
{
    // The headline structural claim: for distributed transforms the
    // butterfly-exchange decomposition beats the all-to-all four-step
    // on every fabric.
    for (auto fabric : {makeNvSwitchFabric(), makePcieFabric()}) {
        MultiGpuSystem sys{makeA100(), fabric, 8};
        UniNttEngine<F> unintt(sys);
        FourStepMultiGpuNtt<F> fourstep(sys);
        auto a = unintt.analyticRun(26, NttDirection::Forward);
        auto b = fourstep.analyticRun(26, NttDirection::Forward);
        EXPECT_LT(a.totalSeconds(), b.totalSeconds())
            << toString(fabric.kind);
    }
}

TEST(Comparison, UniNttSingleGpuBeatsIcicleLike)
{
    UniNttEngine<F> unintt(makeDgxA100(1));
    IcicleLikeNtt<F> icicle(makeA100());
    auto a = unintt.analyticRun(24, NttDirection::Forward);
    auto b = icicle.analyticRun(24, NttDirection::Forward);
    EXPECT_LT(a.totalSeconds(), b.totalSeconds());
}

} // namespace
} // namespace unintt
