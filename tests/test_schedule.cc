/**
 * @file
 * Stage-schedule IR tests: structural invariants of compiled schedules
 * across hardware models, schedule-cache behavior, a golden snapshot
 * of one canonical configuration, the natural-order output gather, and
 * the batched inverse round trip (engine and backend API).
 */

#include <gtest/gtest.h>

#include "field/babybear.hh"
#include "field/bn254.hh"
#include "field/dispatch.hh"
#include "field/goldilocks.hh"
#include "ntt/fourstep.hh"
#include "unintt/backend.hh"
#include "unintt/cache.hh"
#include "unintt/engine.hh"
#include "unintt/schedule.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace unintt {
namespace {

/** Same hardware-model sweep the plan property tests use. */
std::vector<MultiGpuSystem>
scheduleSystems()
{
    std::vector<MultiGpuSystem> out;
    for (unsigned gpus : {1u, 2u, 4u, 8u}) {
        out.push_back(makeDgxA100(gpus));
        out.push_back(makeHgxH100(gpus));
        out.push_back(makePcieWorkstation(gpus));
    }
    out.push_back(makeA100Cluster(2, 4));
    MultiGpuSystem tiny = makeDgxA100(4);
    tiny.gpu.name = "tiny-smem";
    tiny.gpu.smemBytesPerBlock = 8 << 10;
    out.push_back(tiny);
    MultiGpuSystem narrow = makeDgxA100(4);
    narrow.gpu.name = "small-blocks";
    narrow.gpu.maxThreadsPerBlock = 128;
    out.push_back(narrow);
    MultiGpuSystem wide = makeDgxA100(2);
    wide.gpu.name = "wide-warp";
    wide.gpu.warpSize = 64;
    out.push_back(wide);
    return out;
}

/** Hierarchy rank: larger = closer to the fabric. */
int
levelRank(ExecLevel level)
{
    switch (level) {
      case ExecLevel::Warp:
        return 0;
      case ExecLevel::Block:
        return 1;
      case ExecLevel::Gpu:
        return 2;
      case ExecLevel::MultiGpu:
        return 3;
      case ExecLevel::Node:
        return 4;
    }
    return -1;
}

bool
isButterflyStep(const ScheduleStep &st)
{
    return st.kind == StepKind::CrossStage ||
           st.kind == StepKind::LocalPass ||
           st.kind == StepKind::FusedLocalPass;
}

TEST(ScheduleProperty, InvariantsHoldAcrossHardwareModels)
{
    const UniNttConfig cfg = UniNttConfig::allOn();
    const CostConstants costs;
    for (const auto &sys : scheduleSystems()) {
        ASSERT_TRUE(isPow2(sys.numGpus));
        const unsigned logMg = log2Exact(sys.numGpus);
        for (NttDirection dir :
             {NttDirection::Forward, NttDirection::Inverse}) {
            for (unsigned logN = logMg + 2; logN <= 24; logN += 5) {
                SCOPED_TRACE(sys.gpu.name + " gpus=" +
                             std::to_string(sys.numGpus) + " logN=" +
                             std::to_string(logN) + " " +
                             std::string(toString(dir)));
                const auto pl = planNtt(logN, sys, 8);
                const auto sched =
                    compileSchedule(pl, sys, dir, 8, cfg, costs);

                // Power-of-two sharding: the chunks tile the
                // transform exactly.
                EXPECT_EQ(pl.chunkElems() * sys.numGpus,
                          uint64_t{1} << logN);

                // Butterfly coverage: cross stages and local passes
                // together resolve exactly logN bits, and the
                // cross-GPU portion is exactly logMg stages.
                unsigned covered = 0, cross = 0, exchanges = 0;
                for (size_t i = 0; i < sched.steps.size(); ++i) {
                    const auto &st = sched.steps[i];
                    EXPECT_FALSE(st.name.empty());
                    if (isButterflyStep(st))
                        covered += st.sEnd - st.sBegin;
                    if (st.kind == StepKind::CrossStage) {
                        ++cross;
                        // Pairwise exchange distance is a power of
                        // two inside the GPU index space.
                        EXPECT_TRUE(isPow2(st.distance));
                        EXPECT_LT(st.distance, sys.numGpus);
                    }
                    if (st.kind == StepKind::Exchange) {
                        ++exchanges;
                        // Dataflow order: the consuming CrossStage
                        // follows immediately.
                        ASSERT_LT(i + 1, sched.steps.size());
                        EXPECT_EQ(sched.steps[i + 1].kind,
                                  StepKind::CrossStage);
                        EXPECT_EQ(sched.steps[i + 1].sBegin,
                                  st.sBegin);
                        EXPECT_GT(st.comm.bytesPerGpu, 0u);
                    }
                }
                EXPECT_EQ(covered, logN);
                EXPECT_EQ(cross, logMg);
                EXPECT_EQ(exchanges, logMg);
                EXPECT_GT(sched.peakDeviceBytes, 0u);

                // Level monotonicity over the butterfly steps: the
                // forward transform descends the hierarchy
                // (node/multi-GPU exchanges first, block-level grid
                // passes last); the inverse ascends it.
                int prev = dir == NttDirection::Forward ? 100 : -1;
                for (const auto &st : sched.steps) {
                    if (!isButterflyStep(st))
                        continue;
                    const int rank = levelRank(st.level);
                    if (dir == NttDirection::Forward)
                        EXPECT_LE(rank, prev);
                    else
                        EXPECT_GE(rank, prev);
                    prev = rank;
                }
            }
        }
    }
}

TEST(ScheduleCacheTest, SecondCompileIsServedFromTheCache)
{
    PlanCache::global().clear();
    ScheduleCache::global().clear();
    UniNttEngine<Goldilocks> engine(makeDgxA100(4));

    bool plan_hit = true, sched_hit = true;
    auto cold = engine.schedule(18, NttDirection::Forward, 1, &plan_hit,
                                &sched_hit);
    EXPECT_FALSE(plan_hit);
    EXPECT_FALSE(sched_hit);

    auto warm = engine.schedule(18, NttDirection::Forward, 1, &plan_hit,
                                &sched_hit);
    EXPECT_TRUE(plan_hit);
    EXPECT_TRUE(sched_hit);
    // Identical schedule object, not merely an equal one.
    EXPECT_EQ(cold.get(), warm.get());

    // A different direction or batch is a different schedule.
    auto inv = engine.schedule(18, NttDirection::Inverse, 1, &plan_hit,
                               &sched_hit);
    EXPECT_FALSE(sched_hit);
    EXPECT_NE(cold.get(), inv.get());
    auto batched = engine.schedule(18, NttDirection::Forward, 4,
                                   &plan_hit, &sched_hit);
    EXPECT_FALSE(sched_hit);
    EXPECT_NE(cold.get(), batched.get());
}

TEST(ScheduleGolden, CanonicalConfigSnapshot)
{
    // Goldilocks 2^20 on a 4-GPU DGX-A100: the canonical configuration
    // pins the exact step sequence the compiler emits. A change here is
    // a deliberate IR change and must update this snapshot.
    UniNttEngine<Goldilocks> engine(makeDgxA100(4));
    auto sched = engine.schedule(20, NttDirection::Forward);

    const std::vector<std::pair<StepKind, std::string>> expect = {
        {StepKind::Exchange, "mgpu-stage-0/x2-exchange"},
        {StepKind::CrossStage, "mgpu-stage-0/x2-compute"},
        {StepKind::Exchange, "mgpu-stage-1/x1-exchange"},
        {StepKind::CrossStage, "mgpu-stage-1/x1-compute"},
        // The tail group is pinned to the full 2^15-element tile so
        // it runs the in-place contiguous sweep; the 3-stage head
        // streams through buffered column slabs.
        {StepKind::FusedLocalPass, "fused-pass-0/b3"},
        {StepKind::FusedLocalPass, "fused-pass-1/b15"},
    };
    ASSERT_EQ(sched->steps.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(sched->steps[i].kind, expect[i].first) << "step " << i;
        EXPECT_EQ(sched->steps[i].name, expect[i].second)
            << "step " << i;
    }
    EXPECT_EQ(sched->steps[0].level, ExecLevel::MultiGpu);
    EXPECT_EQ(sched->steps[4].level, ExecLevel::Block);
    // Goldilocks is 8 bytes: the 256 KiB cache model resolves to
    // 2^15-element tiles.
    EXPECT_EQ(sched->steps[4].tileLog2, 15u);
    EXPECT_EQ(sched->steps[5].tileLog2, 15u);
    EXPECT_EQ(sched->peakDeviceBytes, uint64_t{4} << 20);
    EXPECT_EQ(sched->plan.toString(),
              "2^20 = mgpu(2) * pass(9) * pass(9)");
}

TEST(FusedScheduleInvariants, GroupsRespectChunkAndTileBounds)
{
    const CostConstants costs;
    for (const auto &sys : scheduleSystems()) {
        const unsigned logMg = log2Exact(sys.numGpus);
        for (unsigned tile : {0u, 4u, 11u, 20u}) {
            UniNttConfig cfg = UniNttConfig::allOn();
            cfg.hostTileLog2 = tile;
            // The compiler resolves the tile with the bound SIMD
            // lane width (the floor rises so a fused tile always
            // feeds full vectors), so the expectation must too.
            const unsigned resolved = cfg.resolvedHostTileLog2(
                sizeof(Goldilocks),
                isaLaneWidth(cfg.isaPath, sizeof(Goldilocks)));
            for (unsigned logN = logMg + 2; logN <= 24; logN += 6) {
                SCOPED_TRACE(sys.gpu.name + " gpus=" +
                             std::to_string(sys.numGpus) + " logN=" +
                             std::to_string(logN) + " tile=" +
                             std::to_string(tile));
                const auto pl =
                    planNtt(logN, sys, sizeof(Goldilocks));
                const auto sched = compileSchedule(
                    pl, sys, NttDirection::Forward,
                    sizeof(Goldilocks), cfg, costs);
                unsigned covered = 0;
                for (const auto &st : sched.steps) {
                    if (st.kind != StepKind::FusedLocalPass)
                        continue;
                    covered += st.sEnd - st.sBegin;
                    // Groups stay GPU-local: the super-block
                    // n >> sBegin fits inside one chunk.
                    EXPECT_GE(st.sBegin, logMg);
                    // A group never spans more stages than the
                    // resident tile can hold.
                    EXPECT_LE(st.sEnd - st.sBegin, resolved);
                    EXPECT_EQ(st.tileLog2, resolved);
                }
                // Fusion replaces every LocalPass, covering all
                // GPU-local stages.
                EXPECT_EQ(covered, logN - logMg);
                for (const auto &st : sched.steps)
                    EXPECT_NE(st.kind, StepKind::LocalPass);
            }
        }
    }
}

TEST(FusedScheduleInvariants, FusionReducesDramNotComm)
{
    // At 2^26 on 4 GPUs the unfused walk needs several block-tile
    // grid passes where fusion needs two host-tile groups: fewer
    // DRAM round trips and launches, identical arithmetic and
    // identical communication volume.
    const CostConstants costs;
    const auto sys = makeDgxA100(4);
    const auto pl = planNtt(26, sys, sizeof(Goldilocks));

    UniNttConfig fused = UniNttConfig::allOn();
    UniNttConfig unfused = fused;
    unfused.fuseLocalPasses = false;

    const auto sf = compileSchedule(pl, sys, NttDirection::Forward,
                                    sizeof(Goldilocks), fused, costs);
    const auto su = compileSchedule(pl, sys, NttDirection::Forward,
                                    sizeof(Goldilocks), unfused, costs);

    KernelStats kf, ku;
    CommStats cf, cu;
    for (const auto &st : sf.steps) {
        kf += st.stats;
        cf += st.comm;
    }
    for (const auto &st : su.steps) {
        ku += st.stats;
        cu += st.comm;
    }
    EXPECT_EQ(kf.butterflies, ku.butterflies);
    EXPECT_EQ(kf.fieldMuls, ku.fieldMuls);
    EXPECT_LT(kf.globalBytes(), ku.globalBytes());
    EXPECT_LT(kf.kernelLaunches, ku.kernelLaunches);
    EXPECT_EQ(cf.bytesPerGpu, cu.bytesPerGpu);
    EXPECT_EQ(cf.messages, cu.messages);
}

TEST(ScheduleCacheTest, TileConfigIsPartOfTheKey)
{
    PlanCache::global().clear();
    ScheduleCache::global().clear();
    const auto sys = makeDgxA100(4);

    // Pinned off the tuning DB: a DB hit would swap in one persisted
    // config for all four and make them compile one schedule.
    UniNttConfig auto_tile = UniNttConfig::allOn();
    auto_tile.useTuneDb = false;
    UniNttConfig tile7 = auto_tile;
    tile7.hostTileLog2 = 7;
    UniNttConfig tile8 = auto_tile;
    tile8.hostTileLog2 = 8;
    UniNttConfig off = auto_tile;
    off.fuseLocalPasses = false;

    std::vector<std::shared_ptr<const StageSchedule>> scheds;
    for (const auto &cfg : {auto_tile, tile7, tile8, off}) {
        UniNttEngine<Goldilocks> engine(sys, cfg);
        bool plan_hit = false, sched_hit = true;
        scheds.push_back(engine.schedule(18, NttDirection::Forward, 1,
                                         &plan_hit, &sched_hit));
        // Tile configuration is part of the schedule key, so none of
        // these compilations can be served from another's entry.
        EXPECT_FALSE(sched_hit);
    }
    for (size_t i = 0; i < scheds.size(); ++i)
        for (size_t j = i + 1; j < scheds.size(); ++j)
            EXPECT_NE(scheds[i].get(), scheds[j].get())
                << i << " vs " << j;
}

/** A linear schedule's DAG: node i is step i, unsplit, in wave i. */
void
expectLinearDag(const StageSchedule &sched)
{
    ASSERT_EQ(sched.dag.size(), sched.steps.size());
    ASSERT_EQ(sched.waves.size(), sched.steps.size());
    for (size_t i = 0; i < sched.dag.size(); ++i) {
        const auto &nd = sched.dag[i];
        EXPECT_EQ(nd.step, i);
        EXPECT_EQ(nd.chunkCount, 1u);
        EXPECT_EQ(nd.sliceBegin, 0u);
        EXPECT_EQ(nd.sliceEnd, sched.plan.chunkElems());
        EXPECT_EQ(nd.wave, i);
        EXPECT_EQ(sched.waves[i], std::vector<uint32_t>{uint32_t(i)});
    }
}

TEST(DagOverlay, InvariantsHoldAcrossHardwareModels)
{
    // Every compiled DAG overlay must be acyclic, cover the exact step
    // multiset of the linear list, partition each split step's chunk
    // into disjoint slices, and level nodes into waves consistent with
    // their dependencies.
    const UniNttConfig cfg = UniNttConfig::allOn();
    const CostConstants costs;
    for (const auto &sys : scheduleSystems()) {
        const unsigned logMg = log2Exact(sys.numGpus);
        for (NttDirection dir :
             {NttDirection::Forward, NttDirection::Inverse}) {
            for (unsigned logN = logMg + 2; logN <= 24; logN += 5) {
                SCOPED_TRACE(sys.gpu.name + " gpus=" +
                             std::to_string(sys.numGpus) + " logN=" +
                             std::to_string(logN) + " " +
                             std::string(toString(dir)));
                const auto pl = planNtt(logN, sys, 8);
                const auto sched =
                    compileSchedule(pl, sys, dir, 8, cfg, costs);

                if (sys.numGpus == 1) {
                    // Single-GPU plans have nothing to overlap: the
                    // DAG is linear, one node per step in its own
                    // wave.
                    EXPECT_FALSE(sched.overlapped);
                    expectLinearDag(sched);
                    continue;
                }
                ASSERT_TRUE(sched.overlapped);
                ASSERT_FALSE(sched.dag.empty());

                // Acyclic by construction: every edge points at an
                // earlier node, and waves respect the edges.
                std::vector<unsigned> nodes_per_step(
                    sched.steps.size(), 0);
                for (size_t i = 0; i < sched.dag.size(); ++i) {
                    const auto &nd = sched.dag[i];
                    ASSERT_LT(nd.step, sched.steps.size());
                    nodes_per_step[nd.step]++;
                    for (uint32_t d : nd.deps) {
                        ASSERT_LT(d, i);
                        EXPECT_LT(sched.dag[d].wave, nd.wave);
                    }
                }

                // Same step multiset as the linear schedule: every
                // step is covered, split steps by exactly chunkCount
                // nodes whose slices partition the chunk.
                const uint64_t C = pl.chunkElems();
                for (size_t s = 0; s < sched.steps.size(); ++s) {
                    EXPECT_GE(nodes_per_step[s], 1u) << "step " << s;
                    uint64_t covered = 0, expect_begin = 0;
                    for (const auto &nd : sched.dag) {
                        if (nd.step != s)
                            continue;
                        EXPECT_EQ(nodes_per_step[s], nd.chunkCount);
                        EXPECT_EQ(nd.sliceBegin, expect_begin);
                        EXPECT_LT(nd.sliceBegin, nd.sliceEnd);
                        covered += nd.sliceEnd - nd.sliceBegin;
                        expect_begin = nd.sliceEnd;
                    }
                    EXPECT_EQ(covered, C) << "step " << s;
                }

                // Node order is step order (the dispatcher relies on
                // this for deterministic drains), and an exchange
                // chunk's butterflies depend on it transitively.
                for (size_t i = 1; i < sched.dag.size(); ++i)
                    EXPECT_LE(sched.dag[i - 1].step, sched.dag[i].step);

                // The wave buckets are exactly the node set.
                size_t bucketed = 0;
                for (size_t w = 0; w < sched.waves.size(); ++w)
                    for (uint32_t ni : sched.waves[w]) {
                        ASSERT_LT(ni, sched.dag.size());
                        EXPECT_EQ(sched.dag[ni].wave, w);
                        bucketed++;
                    }
                EXPECT_EQ(bucketed, sched.dag.size());

                // The overlay actually overlaps: with more than one
                // cross stage some wave mixes an exchange chunk with
                // butterfly work of a different step.
                unsigned exchanges = 0;
                for (const auto &st : sched.steps)
                    if (st.kind == StepKind::Exchange)
                        ++exchanges;
                if (exchanges >= 2 && C >= 2) {
                    bool mixed = false;
                    for (const auto &wave : sched.waves) {
                        bool ex = false, comp = false;
                        for (uint32_t ni : wave) {
                            const auto &st =
                                sched.steps[sched.dag[ni].step];
                            (st.kind == StepKind::Exchange ? ex : comp) =
                                true;
                        }
                        mixed |= ex && comp;
                    }
                    EXPECT_TRUE(mixed);
                }
            }
        }
    }
}

TEST(DagOverlay, DoubleBufferedChunksNeverAliasTheirPartner)
{
    // The executors run each cross-stage chunk node in place: its
    // butterflies read and write only their slice of both partner
    // chunks, with no staging copy. That is safe only if the slices
    // the compiler assigns to adjacent chunks of one step are
    // disjoint, and if every chunk node depends on exactly the node
    // that finished its slice in the step before (chunk-aligned
    // edges): then a node never reads a slice another node of the
    // same or an earlier wave is still writing.
    const auto sys = makeDgxA100(4);
    const auto pl = planNtt(22, sys, sizeof(Goldilocks));
    const auto sched = compileSchedule(
        pl, sys, NttDirection::Forward, sizeof(Goldilocks),
        UniNttConfig::allOn(), CostConstants{});
    ASSERT_TRUE(sched.overlapped);

    for (size_t i = 0; i < sched.dag.size(); ++i) {
        const auto &nd = sched.dag[i];
        if (nd.chunk == 0)
            continue;
        // The previous chunk of the same step is this node's
        // serialization dep; their slices must not overlap.
        const auto &prev = sched.dag[i - 1];
        ASSERT_EQ(prev.step, nd.step);
        ASSERT_EQ(prev.chunk, nd.chunk - 1);
        EXPECT_LE(prev.sliceEnd, nd.sliceBegin);
        // And the producing/consuming chunk across steps covers the
        // same slice, so a butterfly chunk reads only elements its
        // dependencies have finished.
        for (uint32_t d : nd.deps) {
            const auto &dep = sched.dag[d];
            if (dep.step == nd.step)
                continue;
            EXPECT_EQ(dep.sliceBegin, nd.sliceBegin);
            EXPECT_EQ(dep.sliceEnd, nd.sliceEnd);
        }
    }
}

TEST(ScheduleCacheTest, OverlapConfigIsPartOfTheKey)
{
    // A cached linear schedule must never be served to a DAG dispatch
    // (or the reverse): overlapComm is part of the schedule key.
    PlanCache::global().clear();
    ScheduleCache::global().clear();
    const auto sys = makeDgxA100(4);

    // Pinned off the tuning DB, which may pin overlapComm itself.
    UniNttConfig on = UniNttConfig::allOn();
    on.useTuneDb = false;
    UniNttConfig off = on;
    off.overlapComm = false;

    UniNttEngine<Goldilocks> eng_on(sys, on);
    UniNttEngine<Goldilocks> eng_off(sys, off);
    bool plan_hit = false, sched_hit = true;
    auto s_on = eng_on.schedule(18, NttDirection::Forward, 1, &plan_hit,
                                &sched_hit);
    EXPECT_FALSE(sched_hit);
    sched_hit = true;
    auto s_off = eng_off.schedule(18, NttDirection::Forward, 1,
                                  &plan_hit, &sched_hit);
    EXPECT_FALSE(sched_hit);
    EXPECT_NE(s_on.get(), s_off.get());
    EXPECT_TRUE(s_on->overlapped);
    EXPECT_FALSE(s_off->overlapped);
    expectLinearDag(*s_off);

    // Both stay resident and replay to their own dispatch mode.
    sched_hit = false;
    auto warm_on = eng_on.schedule(18, NttDirection::Forward, 1,
                                   &plan_hit, &sched_hit);
    EXPECT_TRUE(sched_hit);
    EXPECT_EQ(warm_on.get(), s_on.get());
    sched_hit = false;
    auto warm_off = eng_off.schedule(18, NttDirection::Forward, 1,
                                     &plan_hit, &sched_hit);
    EXPECT_TRUE(sched_hit);
    EXPECT_EQ(warm_off.get(), s_off.get());
}

TEST(NaturalOrderOutput, GatherProducesTheNaturalOrderSpectrum)
{
    const unsigned logN = 12;
    const size_t n = size_t{1} << logN;
    Rng rng(77);
    std::vector<Goldilocks> input(n);
    for (auto &v : input)
        v = Goldilocks::fromU64(rng.next());

    UniNttConfig cfg = UniNttConfig::allOn();
    cfg.naturalOrderOutput = true;
    UniNttEngine<Goldilocks> engine(makeDgxA100(4), cfg);

    // The compiled schedule ends in the gather step.
    auto sched = engine.schedule(logN, NttDirection::Forward);
    ASSERT_FALSE(sched->steps.empty());
    EXPECT_EQ(sched->steps.back().kind, StepKind::BitRevGather);

    auto dist = DistributedVector<Goldilocks>::fromGlobal(input, 4);
    engine.forward(dist);
    // Four-step emits the natural-order spectrum directly.
    const auto want =
        fourStepNtt(input, size_t{1} << (logN / 2),
                    NttDirection::Forward);
    EXPECT_EQ(dist.toGlobal(), want);
}

TEST(BatchApi, ForwardBatchThenInverseBatchRestoresEveryEntry)
{
    const unsigned logN = 10;
    const size_t n = size_t{1} << logN;
    Rng rng(123);
    std::vector<std::vector<BabyBear>> inputs(3);
    std::vector<DistributedVector<BabyBear>> batch;
    for (auto &in : inputs) {
        in.resize(n);
        for (auto &v : in)
            v = BabyBear::fromU64(rng.next());
        batch.push_back(DistributedVector<BabyBear>::fromGlobal(in, 4));
    }

    UniNttEngine<BabyBear> engine(makeDgxA100(4));
    engine.forwardBatch(batch);
    SimReport inv = engine.inverseBatch(batch);
    for (size_t b = 0; b < batch.size(); ++b)
        EXPECT_EQ(batch[b].toGlobal(), inputs[b]) << "entry " << b;
    // One amortized timeline, not one per entry: a single
    // inverse-scale phase for the whole batch.
    unsigned scales = 0;
    for (const auto &p : inv.phases())
        if (p.name == "inverse-scale-fused")
            ++scales;
    EXPECT_EQ(scales, 1u);
}

TEST(BackendApi, RegistryExposesTheBuiltinsAndBatchRoundTrips)
{
    auto &reg = NttBackendRegistry<Goldilocks>::global();
    const auto names = reg.names();
    for (const char *want :
         {"unintt", "fourstep", "fourstep-prior", "single-gpu",
          "naive"})
        EXPECT_NE(std::find(names.begin(), names.end(), want),
                  names.end())
            << want;
    EXPECT_EQ(reg.tryMake("no-such-backend", makeDgxA100(4)), nullptr);

    auto sys = makeDgxA100(4);
    auto be = reg.make("unintt", sys);
    EXPECT_STREQ(be->name(), "unintt");

    // The backend prices exactly like the concrete engine.
    UniNttEngine<Goldilocks> engine(sys);
    EXPECT_EQ(be->analyticRun(20, NttDirection::Forward).totalSeconds(),
              engine.analyticRun(20, NttDirection::Forward)
                  .totalSeconds());

    // Batched round trip through the polymorphic interface.
    const size_t n = size_t{1} << 10;
    Rng rng(55);
    std::vector<std::vector<Goldilocks>> inputs(2);
    std::vector<DistributedVector<Goldilocks>> batch;
    for (auto &in : inputs) {
        in.resize(n);
        for (auto &v : in)
            v = Goldilocks::fromU64(rng.next());
        batch.push_back(
            DistributedVector<Goldilocks>::fromGlobal(in, 4));
    }
    be->forwardBatch(batch);
    be->inverseBatch(batch);
    for (size_t b = 0; b < batch.size(); ++b)
        EXPECT_EQ(batch[b].toGlobal(), inputs[b]) << "entry " << b;

    // The single-GPU backend really is pinned to one device.
    EXPECT_EQ(reg.make("single-gpu", sys)->system().numGpus, 1u);
}

} // namespace
} // namespace unintt
