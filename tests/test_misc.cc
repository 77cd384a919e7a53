/**
 * @file
 * Tests for the remaining substrate pieces: the hash-based prover
 * schedule, the forced-tile planner path, and the logging verbosity
 * plumbing.
 */

#include <gtest/gtest.h>

#include "ntt/radix2.hh"
#include "unintt/engine.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "zkp/prover.hh"

namespace unintt {
namespace {

TEST(StarkPipeline, ScheduleHasNoMsm)
{
    auto stages = ZkpPipeline::starkStages(20);
    for (const auto &s : stages) {
        EXPECT_NE(s.kind, ProverStage::Kind::MsmG1);
        EXPECT_NE(s.kind, ProverStage::Kind::MsmG2);
    }
}

TEST(StarkPipeline, BreakdownAndScaling)
{
    auto stages = ZkpPipeline::starkStages(22);
    ZkpPipeline one(makeDgxA100(1), NttBackend::UniNtt);
    ZkpPipeline eight(makeDgxA100(8), NttBackend::UniNtt);
    auto b1 = one.estimateHashBased(stages);
    auto b8 = eight.estimateHashBased(stages);
    EXPECT_GT(b1.nttSeconds, 0.0);
    EXPECT_GT(b1.otherSeconds, 0.0);
    EXPECT_DOUBLE_EQ(b1.msmSeconds, 0.0);
    EXPECT_LT(b8.total(), b1.total());
}

TEST(StarkPipeline, UniNttBeatsSingleGpuBackend)
{
    auto stages = ZkpPipeline::starkStages(24);
    auto total = [&](NttBackend b) {
        return ZkpPipeline(makeDgxA100(8), b)
            .estimateHashBased(stages)
            .total();
    };
    EXPECT_LT(total(NttBackend::UniNtt), total(NttBackend::SingleGpu));
    EXPECT_LT(total(NttBackend::UniNtt), total(NttBackend::FourStep));
}

TEST(ForcedTile, PlannerHonorsOverrideAndBalances)
{
    auto sys = makeDgxA100(4);
    auto pl = planNttWithTile(26, sys, 8, 8);
    EXPECT_EQ(pl.logBlockTile, 8u);
    unsigned total = 0;
    for (const auto &p : pl.passes) {
        EXPECT_LE(p.bits, 8u);
        total += p.bits;
    }
    EXPECT_EQ(total, 24u);
    // Balanced: widths differ by at most one bit.
    unsigned min_b = 99, max_b = 0;
    for (const auto &p : pl.passes) {
        min_b = std::min(min_b, p.bits);
        max_b = std::max(max_b, p.bits);
    }
    EXPECT_LE(max_b - min_b, 1u);
}

TEST(ForcedTileDeath, RejectsOversizedTile)
{
    auto sys = makeDgxA100(1);
    EXPECT_EXIT(planNttWithTile(26, sys, 8, 30),
                ::testing::ExitedWithCode(1), "does not fit");
}

TEST(ForcedTile, EngineConfigPlumbing)
{
    UniNttConfig cfg;
    cfg.forceLogBlockTile = 7;
    UniNttEngine<Goldilocks> engine(makeDgxA100(1), cfg);
    EXPECT_EQ(engine.plan(20).logBlockTile, 7u);

    // Functional correctness is tile-independent.
    Rng rng(4);
    std::vector<Goldilocks> x(1 << 10);
    for (auto &v : x)
        v = Goldilocks::fromU64(rng.next());
    auto expect = x;
    nttNoPermute(expect, NttDirection::Forward);
    auto dist = DistributedVector<Goldilocks>::fromGlobal(x, 1);
    engine.forward(dist);
    EXPECT_EQ(dist.toGlobal(), expect);
}

TEST(Logging, VerbosityThresholds)
{
    Logger &log = Logger::instance();
    LogLevel original = log.level();
    log.setLevel(LogLevel::Quiet);
    EXPECT_EQ(log.level(), LogLevel::Quiet);
    // Suppressed emits must not crash.
    inform("suppressed %d", 1);
    warn("suppressed %d", 2);
    debugLog("suppressed %d", 3);
    log.setLevel(LogLevel::Debug);
    EXPECT_EQ(log.level(), LogLevel::Debug);
    log.setLevel(original);
}

} // namespace
} // namespace unintt
