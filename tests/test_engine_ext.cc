/**
 * @file
 * Tests for the engine extensions: coset transforms (LDE), randomized
 * output verification (including failure injection), multi-node
 * execution, and memory-footprint reporting.
 */

#include <gtest/gtest.h>

#include "baselines/fourstep_multigpu.hh"
#include "field/goldilocks.hh"
#include "ntt/radix2.hh"
#include "unintt/engine.hh"
#include "unintt/verify.hh"
#include "util/random.hh"
#include "zkp/polynomial.hh"

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

TEST(CosetNtt, MatchesPolynomialCosetEvaluation)
{
    unsigned logN = 8;
    auto coeffs = randomVector(1ULL << logN, 1);
    F shift = F::multiplicativeGenerator();

    // Host reference: natural-order coset evaluations.
    Polynomial<F> p(coeffs);
    auto expect = p.evaluateOnCoset(logN, shift);

    UniNttEngine<F> engine(makeDgxA100(4));
    auto dist = DistributedVector<F>::fromGlobal(coeffs, 4);
    engine.forwardCoset(dist, shift);
    auto got = dist.toGlobal();
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[bitReverse(i, logN)], expect[i]) << i;
}

TEST(CosetNtt, UnfusedConfigStillCorrectAndSlower)
{
    unsigned logN = 8;
    auto coeffs = randomVector(1ULL << logN, 2);
    F shift = F::multiplicativeGenerator();

    UniNttConfig off = UniNttConfig::allOn();
    off.fuseTwiddles = false;
    UniNttEngine<F> fused(makeDgxA100(2));
    UniNttEngine<F> unfused(makeDgxA100(2), off);

    auto d1 = DistributedVector<F>::fromGlobal(coeffs, 2);
    auto d2 = DistributedVector<F>::fromGlobal(coeffs, 2);
    auto r1 = fused.forwardCoset(d1, shift);
    auto r2 = unfused.forwardCoset(d2, shift);
    EXPECT_EQ(d1.toGlobal(), d2.toGlobal());
    EXPECT_LT(r1.totalSeconds(), r2.totalSeconds());
}

TEST(SpotCheck, AcceptsCorrectTransform)
{
    size_t n = 1 << 10;
    auto input = randomVector(n, 5);
    auto output = input;
    nttNoPermute(output, NttDirection::Forward);
    EXPECT_TRUE(spotCheckForward(input, output, 8, 99));
}

TEST(SpotCheck, DetectsInjectedCorruption)
{
    size_t n = 1 << 10;
    auto input = randomVector(n, 6);
    auto output = input;
    nttNoPermute(output, NttDirection::Forward);

    // Systematic corruption (a mis-routed exchange: swap two blocks)
    // must be caught.
    for (size_t i = 0; i < 64; ++i)
        std::swap(output[i], output[512 + i]);
    EXPECT_FALSE(spotCheckForward(input, output, 16, 99));
}

TEST(SpotCheck, DetectsWrongTwiddleDirection)
{
    size_t n = 1 << 9;
    auto input = randomVector(n, 7);
    auto output = input;
    nttNoPermute(output, NttDirection::Inverse); // wrong direction
    EXPECT_FALSE(spotCheckForward(input, output, 8, 99));
}

TEST(SpotCheck, CosetVariantAccepts)
{
    unsigned logN = 8;
    auto coeffs = randomVector(1ULL << logN, 8);
    F shift = F::multiplicativeGenerator();
    UniNttEngine<F> engine(makeDgxA100(2));
    auto dist = DistributedVector<F>::fromGlobal(coeffs, 2);
    engine.forwardCoset(dist, shift);
    EXPECT_TRUE(spotCheckCoset(coeffs, dist.toGlobal(), shift, 8,
                               99));
    EXPECT_FALSE(spotCheckCoset(coeffs, dist.toGlobal(),
                                shift * shift, 8, 99));
}

TEST(MultiNodeEngine, BitExactAcrossNodes)
{
    // 2 nodes x 4 GPUs: cross-node stages first, then intra-node, then
    // local — still the exact transform.
    auto sys = makeA100Cluster(2, 4);
    auto x = randomVector(1 << 10, 9);
    auto expect = x;
    nttNoPermute(expect, NttDirection::Forward);

    UniNttEngine<F> engine(sys);
    auto dist = DistributedVector<F>::fromGlobal(x, sys.numGpus);
    auto report = engine.forward(dist);
    EXPECT_EQ(dist.toGlobal(), expect);

    // The first stage crosses nodes and is named accordingly.
    ASSERT_FALSE(report.phases().empty());
    EXPECT_NE(report.phases().front().name.find("node-stage"),
              std::string::npos);
}

TEST(MultiNodeEngine, CrossNodeStagesCostMore)
{
    auto cluster = makeA100Cluster(2, 4);
    auto single = makeDgxA100(8);
    UniNttEngine<F> a(cluster);
    UniNttEngine<F> b(single);
    double ta = a.analyticRun(24, NttDirection::Forward).totalSeconds();
    double tb = b.analyticRun(24, NttDirection::Forward).totalSeconds();
    EXPECT_GT(ta, tb); // same GPU count, slower inter-node fabric
}

TEST(MultiNodeEngine, RoundTripAcrossNodes)
{
    auto sys = makeA100Cluster(2, 2);
    auto x = randomVector(1 << 9, 10);
    UniNttEngine<F> engine(sys);
    auto dist = DistributedVector<F>::fromGlobal(x, sys.numGpus);
    engine.forward(dist);
    engine.inverse(dist);
    EXPECT_EQ(dist.toGlobal(), x);
}

TEST(MemoryFootprint, EngineReportsPeak)
{
    UniNttEngine<F> engine(makeDgxA100(4));
    auto rep = engine.analyticRun(24, NttDirection::Forward);
    uint64_t chunk_bytes = (1ULL << 24) / 4 * sizeof(F);
    // Data + exchange buffer; on-the-fly twiddles add no table.
    EXPECT_EQ(rep.peakDeviceBytes(), 2 * chunk_bytes);

    UniNttConfig tables = UniNttConfig::allOn();
    tables.onTheFlyTwiddles = false;
    tables.autoTuneTwiddles = false;
    UniNttEngine<F> with_tables(makeDgxA100(4), tables);
    EXPECT_GT(with_tables.analyticRun(24, NttDirection::Forward)
                  .peakDeviceBytes(),
              rep.peakDeviceBytes());
}

TEST(MemoryFootprint, FourStepUsesMoreMemory)
{
    UniNttEngine<F> uni(makeDgxA100(4));
    FourStepMultiGpuNtt<F> four(makeDgxA100(4));
    EXPECT_LT(uni.analyticRun(24, NttDirection::Forward)
                  .peakDeviceBytes(),
              four.analyticRun(24, NttDirection::Forward)
                  .peakDeviceBytes());
}

TEST(MemoryFootprint, AppendKeepsMaxPeak)
{
    SimReport a, b;
    a.setPeakDeviceBytes(100);
    b.setPeakDeviceBytes(300);
    a.append(b);
    EXPECT_EQ(a.peakDeviceBytes(), 300u);
}

} // namespace
} // namespace unintt
