/**
 * @file
 * Stage-schedule IR tests: structural invariants of compiled schedules
 * across hardware models, schedule-cache behavior, a golden snapshot
 * of one canonical configuration, fused-group and DAG-overlay
 * invariants, and the engine's batched round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "field/babybear.hh"
#include "field/bn254.hh"
#include "field/goldilocks.hh"
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
    // Goldilocks is 8 bytes: the 256 KiB cache model gives
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
        const UniNttConfig cfg = UniNttConfig::allOn();
        const unsigned tile = fusedTileLog2(sizeof(Goldilocks));
        for (unsigned logN = logMg + 2; logN <= 24; logN += 6) {
            SCOPED_TRACE(sys.gpu.name + " gpus=" +
                         std::to_string(sys.numGpus) + " logN=" +
                         std::to_string(logN));
            const auto pl = planNtt(logN, sys, sizeof(Goldilocks));
            const auto sched =
                compileSchedule(pl, sys, NttDirection::Forward,
                                sizeof(Goldilocks), cfg, costs);
            unsigned covered = 0;
            for (const auto &st : sched.steps) {
                if (st.kind != StepKind::FusedLocalPass)
                    continue;
                covered += st.sEnd - st.sBegin;
                // Groups stay GPU-local: the super-block n >> sBegin
                // fits inside one chunk.
                EXPECT_GE(st.sBegin, logMg);
                // A group never spans more stages than the resident
                // tile can hold.
                EXPECT_LE(st.sEnd - st.sBegin, tile);
                EXPECT_EQ(st.tileLog2, tile);
            }
            // Fusion replaces every LocalPass, covering all GPU-local
            // stages.
            EXPECT_EQ(covered, logN - logMg);
            for (const auto &st : sched.steps)
                EXPECT_NE(st.kind, StepKind::LocalPass);
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

    UniNttConfig fused = UniNttConfig::allOn();
    UniNttConfig off = fused;
    off.fuseLocalPasses = false;

    std::vector<std::shared_ptr<const StageSchedule>> scheds;
    for (const auto &cfg : {fused, off}) {
        UniNttEngine<Goldilocks> engine(sys, cfg);
        bool plan_hit = false, sched_hit = true;
        scheds.push_back(engine.schedule(18, NttDirection::Forward, 1,
                                         &plan_hit, &sched_hit));
        // Fusion is part of the schedule key, so neither compilation
        // can be served from the other's entry.
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

    UniNttConfig on = UniNttConfig::allOn();
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
    // One amortized timeline, not one per entry. n^-1 has no phase of
    // its own: the first step prices its multiplies for the whole
    // batch, C x batch on top of its butterflies.
    for (const auto &p : inv.phases())
        EXPECT_NE(p.name, "inverse-scale-fused");
    const auto sched =
        engine.schedule(logN, NttDirection::Inverse, batch.size());
    const ScheduleStep &first = sched->steps.front();
    EXPECT_TRUE(first.applyInverseScale);
    const uint64_t C = n / 4;
    const KernelStats bfly =
        gridPassEventStats(C, first.pass, batch.size(), sizeof(BabyBear),
                           engine.config(), CostConstants{});
    ASSERT_FALSE(inv.phases().empty());
    EXPECT_EQ(inv.phases().front().name, first.name);
    EXPECT_EQ(inv.phases().front().kernel.fieldMuls,
              bfly.fieldMuls + C * batch.size());
}

/** The four compiles the n^-1 placement is checked on. */
enum class CompileMode
{
    Plain,
    ResilientAbft,
    Resume,
};

TEST(InverseScalePlacement, FirstStepOfEveryFullInverseCarriesIt)
{
    // n^-1 commutes with every step, so the first step of a full
    // inverse multiplies by it: the innermost local pass, whose tiles
    // are in cache. No other step, no forward and no resume schedule
    // carries it, and with twiddle fusion no Scale step is left.
    const CostConstants costs;
    const size_t eb = 8;
    for (const auto &sys : scheduleSystems()) {
        const unsigned logMg = log2Exact(sys.numGpus);
        MultiGpuSystem half = sys;
        half.numGpus = std::max(1u, sys.numGpus / 2);
        if (half.gpusPerNode != 0 && half.numGpus <= half.gpusPerNode)
            half.gpusPerNode = 0;
        for (unsigned logN : {logMg + 1, logMg + 12, 22u})
        for (bool fuse_tw : {true, false})
        for (bool fuse_lp : {true, false})
        for (size_t batch : {size_t{1}, size_t{4}})
        for (CompileMode mode : {CompileMode::Plain,
                                 CompileMode::ResilientAbft,
                                 CompileMode::Resume})
        for (NttDirection dir :
             {NttDirection::Forward, NttDirection::Inverse}) {
            if (mode == CompileMode::Resume && logMg == 0)
                continue; // one GPU has nothing to degrade to
            SCOPED_TRACE(sys.gpu.name + " gpus=" +
                         std::to_string(sys.numGpus) + " logN=" +
                         std::to_string(logN) + " fuseTw=" +
                         std::to_string(fuse_tw) + " fuseLp=" +
                         std::to_string(fuse_lp) + " batch=" +
                         std::to_string(batch) + " mode=" +
                         std::to_string(static_cast<int>(mode)) + " " +
                         toString(dir));
            UniNttConfig cfg = UniNttConfig::allOn();
            cfg.fuseTwiddles = fuse_tw;
            cfg.fuseLocalPasses = fuse_lp;
            ScheduleOptions opts;
            opts.batch = batch;
            opts.resilient = mode != CompileMode::Plain;
            opts.abft = mode == CompileMode::ResilientAbft;
            opts.spotChecks = opts.resilient ? 4 : 0;
            // A resume after losing half the GPUs at the first
            // exchange the direction runs.
            const bool resume = mode == CompileMode::Resume;
            opts.resume = resume;
            opts.origLogMg = logMg;
            opts.resumeStage =
                dir == NttDirection::Inverse ? logMg - 1 : 0;
            const NttPlan pl = planNtt(logN, resume ? half : sys, eb);
            const StageSchedule sched = compileSchedule(
                pl, resume ? half : sys, dir, eb, cfg, costs, opts);
            const uint64_t C = pl.chunkElems();

            const bool full_inverse =
                dir == NttDirection::Inverse && !resume;
            size_t carriers = 0;
            for (const ScheduleStep &st : sched.steps) {
                carriers += st.applyInverseScale ? 1 : 0;
                if (fuse_tw) {
                    EXPECT_NE(st.kind, StepKind::Scale) << st.name;
                }
            }
            EXPECT_EQ(carriers, full_inverse ? 1u : 0u);
            ASSERT_FALSE(sched.steps.empty());
            const ScheduleStep &first = sched.steps.front();
            if (full_inverse) {
                EXPECT_TRUE(first.applyInverseScale);
                EXPECT_EQ(first.kind, fuse_lp ? StepKind::FusedLocalPass
                                              : StepKind::LocalPass);
                EXPECT_EQ(first.sEnd, logN);
            }
            // The checked-step dot products the ABFT annotation adds to
            // a step: two passes on the first checked step, else one.
            auto abft_muls = [&](bool first_checked) {
                return opts.abft ? (first_checked ? 2 : 1) * C * batch
                                 : 0;
            };
            if (full_inverse && fuse_tw) {
                const KernelStats bfly = gridPassEventStats(
                    C, first.pass, batch, eb, cfg, costs);
                EXPECT_EQ(first.stats.fieldMuls,
                          bfly.fieldMuls + C * batch + abft_muls(true));
            }
            if (dir == NttDirection::Inverse && !fuse_tw) {
                // The ablation's explicit pass keeps its price.
                size_t found = 0;
                const KernelStats want =
                    twiddlePassEventStats(C, batch, eb);
                for (const ScheduleStep &st : sched.steps) {
                    if (st.name != "twiddle-pass-inverse-scale")
                        continue;
                    ++found;
                    EXPECT_EQ(st.kind, StepKind::Scale);
                    EXPECT_FALSE(st.applyInverseScale);
                    EXPECT_EQ(st.stats.fieldMuls,
                              want.fieldMuls + abft_muls(false));
                    EXPECT_EQ(st.stats.fieldAdds,
                              want.fieldAdds + abft_muls(false));
                    EXPECT_EQ(st.stats.globalReadBytes,
                              want.globalReadBytes +
                                  2 * abft_muls(false) * eb);
                    EXPECT_EQ(st.stats.globalWriteBytes,
                              want.globalWriteBytes);
                    EXPECT_EQ(st.stats.kernelLaunches,
                              want.kernelLaunches);
                }
                EXPECT_EQ(found, 1u);
            }
        }
    }
}

} // namespace
} // namespace unintt
