/**
 * @file
 * Tests for the simulator substrate: hardware presets, the roofline
 * performance model (including monotonicity properties), the
 * interconnect cost functions, the report timeline, device-memory
 * capacity enforcement and peak tracking, and the multi-node system
 * plumbing.
 */

#include <gtest/gtest.h>

#include "field/goldilocks.hh"
#include "sim/hw_model.hh"
#include "sim/interconnect.hh"
#include "sim/multi_gpu.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"

namespace unintt {
namespace {

TEST(HwModel, PresetsAreDistinctAndSane)
{
    for (const auto &m : {makeA100(), makeH100(), makeRtx4090()}) {
        EXPECT_GT(m.numSms, 0u);
        EXPECT_GT(m.clockHz, 1e8);
        EXPECT_GT(m.dramBandwidth, 1e11);
        EXPECT_GT(m.dramCapacityBytes, 1ULL << 30);
        EXPECT_GT(m.smemBytesPerBlock, 16u << 10);
        EXPECT_EQ(m.warpSize, 32u);
    }
    EXPECT_GT(makeH100().dramBandwidth, makeA100().dramBandwidth);
    EXPECT_LT(makeRtx4090().dramCapacityBytes,
              makeA100().dramCapacityBytes);
}

TEST(HwModel, LookupByName)
{
    EXPECT_EQ(gpuModelByName("a100").name, makeA100().name);
    EXPECT_EQ(gpuModelByName("h100").name, makeH100().name);
    EXPECT_EQ(gpuModelByName("rtx4090").name, makeRtx4090().name);
}

TEST(HwModel, FieldCosts)
{
    auto gl = fieldCostOf<Goldilocks>();
    EXPECT_EQ(gl.elementBytes, 8u);
    EXPECT_GT(gl.mulSlots, gl.addSlots);
}

TEST(PerfModel, ZeroStatsZeroTime)
{
    PerfModel pm(makeA100(), fieldCostOf<Goldilocks>());
    EXPECT_DOUBLE_EQ(pm.kernelSeconds(KernelStats{}), 0.0);
}

TEST(PerfModel, MoreWorkTakesLonger)
{
    PerfModel pm(makeA100(), fieldCostOf<Goldilocks>());
    KernelStats small, big;
    small.fieldMuls = 1 << 20;
    big.fieldMuls = 1 << 24;
    EXPECT_LT(pm.kernelSeconds(small), pm.kernelSeconds(big));

    small = KernelStats{};
    big = KernelStats{};
    small.globalReadBytes = 1 << 20;
    big.globalReadBytes = 1 << 26;
    EXPECT_LT(pm.kernelSeconds(small), pm.kernelSeconds(big));
}

TEST(PerfModel, RooflineTakesMaxOfResources)
{
    PerfModel pm(makeA100(), fieldCostOf<Goldilocks>());
    KernelStats s;
    s.fieldMuls = 1ULL << 28;
    s.globalReadBytes = 64; // negligible memory traffic
    auto t = pm.kernelTime(s);
    EXPECT_GT(t.compute, t.dram);
    EXPECT_NEAR(t.total(), t.compute + t.launch, 1e-12);
}

TEST(PerfModel, BankConflictsCost)
{
    PerfModel pm(makeA100(), fieldCostOf<Goldilocks>());
    KernelStats clean, conflicted;
    clean.smemBytes = 1 << 26;
    conflicted.smemBytes = 1 << 26;
    conflicted.smemBankConflicts = 1 << 22;
    EXPECT_LT(pm.kernelTime(clean).smem, pm.kernelTime(conflicted).smem);
}

TEST(PerfModel, LaunchLatencyAdds)
{
    PerfModel pm(makeA100(), fieldCostOf<Goldilocks>());
    KernelStats s;
    s.kernelLaunches = 10;
    EXPECT_NEAR(pm.kernelSeconds(s), 10 * makeA100().kernelLaunchLatency,
                1e-9);
}

TEST(Interconnect, PairwiseScalesWithBytes)
{
    for (const auto &f :
         {makeNvSwitchFabric(), makeRingFabric(), makePcieFabric()}) {
        double t1 = f.pairwiseExchangeTime(1 << 20, 1);
        double t2 = f.pairwiseExchangeTime(1 << 24, 1);
        EXPECT_LT(t1, t2) << toString(f.kind);
    }
}

TEST(Interconnect, RingPaysForDistance)
{
    auto ring = makeRingFabric();
    EXPECT_LT(ring.pairwiseExchangeTime(1 << 24, 1),
              ring.pairwiseExchangeTime(1 << 24, 4));
    // The switch does not care about distance.
    auto sw = makeNvSwitchFabric();
    EXPECT_DOUBLE_EQ(sw.pairwiseExchangeTime(1 << 24, 1),
                     sw.pairwiseExchangeTime(1 << 24, 4));
}

TEST(Interconnect, AllToAllSlowerThanOnePairwise)
{
    // Moving the same per-GPU volume, the all-to-all (many small
    // messages, derated bandwidth) cannot beat a single pairwise
    // exchange on any fabric.
    for (const auto &f :
         {makeNvSwitchFabric(), makeRingFabric(), makePcieFabric()}) {
        uint64_t bytes = 64 << 20;
        EXPECT_GE(f.allToAllTime(bytes, 8),
                  f.pairwiseExchangeTime(bytes, 1) * 0.99)
            << toString(f.kind);
    }
}

TEST(Interconnect, AllToAllTrivialForOneGpu)
{
    EXPECT_DOUBLE_EQ(makeNvSwitchFabric().allToAllTime(1 << 20, 1), 0.0);
}

TEST(Interconnect, LookupByName)
{
    EXPECT_EQ(fabricByName("nvswitch").kind, FabricKind::NvSwitch);
    EXPECT_EQ(fabricByName("ring").kind, FabricKind::Ring);
    EXPECT_EQ(fabricByName("pcie").kind, FabricKind::Pcie);
}

TEST(KernelStatsTest, Accumulates)
{
    KernelStats a, b;
    a.fieldMuls = 10;
    a.globalReadBytes = 100;
    b.fieldMuls = 5;
    b.smemBytes = 7;
    a += b;
    EXPECT_EQ(a.fieldMuls, 15u);
    EXPECT_EQ(a.smemBytes, 7u);
    EXPECT_EQ(a.globalBytes(), 100u);
}

TEST(Report, AccumulatesPhases)
{
    PerfModel pm(makeA100(), fieldCostOf<Goldilocks>());
    SimReport report;
    KernelStats k;
    k.fieldMuls = 1 << 20;
    double t1 = report.addKernelPhase("stage0", k, pm);
    report.addCommPhase("exchange", 1e-3, CommStats{1 << 20, 1});
    EXPECT_EQ(report.phases().size(), 2u);
    EXPECT_NEAR(report.totalSeconds(), t1 + 1e-3, 1e-12);
    EXPECT_NEAR(report.kernelSeconds(), t1, 1e-15);
    EXPECT_NEAR(report.commSeconds(), 1e-3, 1e-15);
    EXPECT_EQ(report.totalKernelStats().fieldMuls, 1u << 20);
    EXPECT_EQ(report.totalCommStats().bytesPerGpu, 1u << 20);
}

TEST(Report, AppendMergesTimelines)
{
    SimReport a, b;
    a.addCommPhase("x", 1e-3, CommStats{});
    b.addCommPhase("y", 2e-3, CommStats{});
    a.append(b);
    EXPECT_EQ(a.phases().size(), 2u);
    EXPECT_NEAR(a.totalSeconds(), 3e-3, 1e-12);
}

TEST(MultiGpu, AbstractLevelsCoverHierarchy)
{
    auto sys = makeDgxA100(4);
    auto levels = sys.abstractLevels(8);
    ASSERT_EQ(levels.size(), 4u);
    EXPECT_EQ(levels[0].name, "multi-gpu");
    EXPECT_EQ(levels[0].fanout, 4u);
    EXPECT_EQ(levels[1].name, "gpu");
    EXPECT_EQ(levels[2].name, "block");
    EXPECT_EQ(levels[3].name, "warp");
    EXPECT_EQ(levels[3].fanout, 32u);
    // Capacities shrink monotonically down the hierarchy.
    EXPECT_GT(levels[0].localCapacityElems, levels[1].localCapacityElems);
    EXPECT_GT(levels[1].localCapacityElems, levels[2].localCapacityElems);
    EXPECT_GT(levels[2].localCapacityElems, levels[3].localCapacityElems);
}

TEST(MultiGpu, DescriptionAndMemory)
{
    auto sys = makeDgxA100(8);
    EXPECT_EQ(sys.description(), "8x A100-SXM4-80GB / nvswitch");
    EXPECT_EQ(sys.totalMemoryBytes(), 8 * (80ULL << 30));
    EXPECT_EQ(makePcieWorkstation(2).fabric.kind, FabricKind::Pcie);
    EXPECT_EQ(makeHgxH100(4).gpu.name, makeH100().name);
}

TEST(MemoryModel, FootprintIsTheSumOfTheBuffers)
{
    EXPECT_EQ(deviceFootprintBytes(makeA100(), {{"a", 1000}, {"b", 500}}),
              1500u);
    EXPECT_EQ(deviceFootprintBytes(makeA100(), {}), 0u);
}

TEST(MemoryModelDeath, OutOfMemoryIsFatal)
{
    const GpuModel gpu = makeA100();
    EXPECT_EXIT(deviceFootprintBytes(
                    gpu, {{"data", 1}, {"huge", gpu.dramCapacityBytes}}),
                ::testing::ExitedWithCode(1),
                "device 0 out of memory allocating [0-9]+ bytes for "
                "'huge' \\(1 of [0-9]+ in use\\)");
}

TEST(MultiNode, TopologyAccessors)
{
    auto sys = makeA100Cluster(4, 8);
    EXPECT_EQ(sys.numGpus, 32u);
    EXPECT_EQ(sys.numNodes(), 4u);
    EXPECT_FALSE(sys.crossesNodes(4));
    EXPECT_TRUE(sys.crossesNodes(8));
    EXPECT_TRUE(sys.crossesNodes(16));
    EXPECT_NE(sys.description().find("4 nodes"), std::string::npos);

    unsigned eff = 0;
    EXPECT_EQ(&sys.fabricFor(4, eff), &sys.fabric);
    EXPECT_EQ(eff, 4u);
    EXPECT_EQ(&sys.fabricFor(16, eff), &sys.nodeFabric);
    EXPECT_EQ(eff, 2u);
}

TEST(MultiNode, SingleNodeClusterBehavesLikeDgx)
{
    auto sys = makeA100Cluster(1, 8);
    EXPECT_EQ(sys.numNodes(), 1u);
    EXPECT_FALSE(sys.crossesNodes(4));
    EXPECT_EQ(sys.description(), makeDgxA100(8).description());
}

TEST(MultiNode, InterNodeFabricIsSlower)
{
    auto ib = makeInfinibandFabric();
    auto nv = makeNvSwitchFabric();
    EXPECT_LT(ib.linkBandwidth, nv.linkBandwidth);
    EXPECT_GT(ib.pairwiseExchangeTime(64 << 20, 1),
              nv.pairwiseExchangeTime(64 << 20, 1));
}

} // namespace
} // namespace unintt
