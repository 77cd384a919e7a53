/**
 * @file
 * Error-path and degenerate-input tests: every fatal() in the public
 * API fires with a clear message (user errors exit rather than corrupt
 * state), and boundary inputs behave.
 */

#include <gtest/gtest.h>

#include "baselines/fourstep_multigpu.hh"
#include "baselines/icicle_like.hh"
#include "baselines/naive_gpu.hh"
#include "field/babybear.hh"
#include "field/bn254.hh"
#include "field/goldilocks.hh"
#include "msm/pippenger.hh"
#include "ntt/radix2.hh"
#include "sim/fault.hh"
#include "sim/multi_gpu.hh"
#include "unintt/engine.hh"
#include "util/cli.hh"
#include "util/status.hh"

namespace unintt {
namespace {

using F = Goldilocks;

TEST(ErrorPaths, UnknownGpuModelIsFatal)
{
    EXPECT_EXIT(gpuModelByName("tpu"), ::testing::ExitedWithCode(1),
                "unknown GPU model");
}

TEST(ErrorPaths, UnknownFabricIsFatal)
{
    EXPECT_EXIT(fabricByName("ethernet"), ::testing::ExitedWithCode(1),
                "unknown fabric");
}

TEST(ErrorPaths, NonPowerOfTwoGpusIsFatal)
{
    auto sys = makeDgxA100(3);
    EXPECT_EXIT(planNtt(20, sys, 8), ::testing::ExitedWithCode(1),
                "power-of-two GPU count");
}

TEST(ErrorPaths, RootOfUnityBeyondTwoAdicityIsFatal)
{
    EXPECT_EXIT(Goldilocks::rootOfUnity(33),
                ::testing::ExitedWithCode(1), "two-adicity");
    EXPECT_EXIT(BabyBear::rootOfUnity(28), ::testing::ExitedWithCode(1),
                "two-adicity");
}

TEST(ErrorPaths, TransformBeyondTwoAdicityIsFatal)
{
    // Analytic pricing never builds a root of unity, so every engine
    // must refuse a size its field cannot transform instead of pricing
    // a transform that cannot exist.
    const auto sys = makeDgxA100(8);
    const auto fwd = NttDirection::Forward;
    EXPECT_EXIT(UniNttEngine<BabyBear>(sys).analyticRun(28, fwd),
                ::testing::ExitedWithCode(1), "BabyBear has two-adicity 27");
    EXPECT_EXIT(UniNttEngine<Bn254Fr>(sys).analyticRun(29, fwd),
                ::testing::ExitedWithCode(1), "BN254-Fr has two-adicity 28");
    EXPECT_EXIT(UniNttEngine<F>(sys).analyticRun(33, fwd),
                ::testing::ExitedWithCode(1),
                "Goldilocks has two-adicity 32");
    EXPECT_EXIT(FourStepMultiGpuNtt<F>(sys).analyticRun(33, fwd),
                ::testing::ExitedWithCode(1), "two-adicity 32");
    EXPECT_EXIT(NaiveGpuNtt<F>(sys.gpu).analyticRun(33, fwd),
                ::testing::ExitedWithCode(1), "two-adicity 32");
    EXPECT_EXIT(IcicleLikeNtt<F>(sys.gpu).analyticRun(33, fwd),
                ::testing::ExitedWithCode(1), "two-adicity 32");
    // A size whose element count overflows 64 bits never plans.
    EXPECT_EXIT(planNtt(70, sys, 8), ::testing::ExitedWithCode(1),
                "does not fit a 64-bit size");
    // The largest size a field holds still prices (fig09 and tab03
    // print BN254-Fr at 2^28).
    EXPECT_GT(UniNttEngine<Bn254Fr>(sys).analyticRun(28, fwd)
                  .totalSeconds(),
              0.0);
}

TEST(ErrorPaths, InverseOfZeroPanics)
{
    EXPECT_DEATH((void)Goldilocks::zero().inverse(), "inverse of zero");
}

TEST(ErrorPaths, CliRejectsUnknownFlag)
{
    CliParser cli("t");
    cli.addInt("size", 1, "x");
    const char *argv[] = {"prog", "--nope=1"};
    EXPECT_EXIT(cli.parse(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "unknown flag");
}

TEST(ErrorPaths, CliRejectsBadInteger)
{
    CliParser cli("t");
    cli.addInt("size", 1, "x");
    const char *argv[] = {"prog", "--size=abc"};
    EXPECT_EXIT(cli.parse(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "expects an integer");
}

TEST(ErrorPaths, CliRejectsBadBool)
{
    CliParser cli("t");
    cli.addBool("flag", false, "x");
    const char *argv[] = {"prog", "--flag=maybe"};
    EXPECT_EXIT(cli.parse(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "expects a boolean");
}

TEST(ErrorPaths, CliRejectsMissingValue)
{
    CliParser cli("t");
    cli.addString("name", "", "x");
    const char *argv[] = {"prog", "--name"};
    EXPECT_EXIT(cli.parse(2, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1), "needs a value");
}

TEST(ErrorPaths, DistributedVectorRejectsUnevenShard)
{
    std::vector<F> v(10);
    EXPECT_DEATH(DistributedVector<F>::fromGlobal(v, 4),
                 "divide evenly");
}

TEST(ErrorPaths, MsmSizeMismatchPanics)
{
    std::vector<G1Affine> points{G1Affine::generator()};
    std::vector<U256> scalars;
    EXPECT_DEATH(pippengerMsm(points, scalars), "size mismatch");
}

TEST(ErrorPaths, DistributedVectorChunkOutOfRangePanics)
{
    std::vector<F> v(8);
    auto dist = DistributedVector<F>::fromGlobal(v, 4);
    EXPECT_DEATH((void)dist.chunk(4), "out of range");
}

TEST(StatusType, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Ok);
    EXPECT_EQ(s.toString(), "OK");
}

TEST(StatusType, ErrorCarriesCodeAndMessage)
{
    Status s = Status::error(StatusCode::DeviceLost, "GPU 3 vanished");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::DeviceLost);
    EXPECT_EQ(s.message(), "GPU 3 vanished");
    EXPECT_EQ(s.toString(), "DEVICE_LOST: GPU 3 vanished");
    EXPECT_STREQ(toString(StatusCode::TransientFault),
                 "TRANSIENT_FAULT");
}

TEST(StatusType, ResultHoldsValueOrStatus)
{
    Result<int> good(7);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(*good, 7);

    Result<int> bad(Status::error(StatusCode::DataCorruption, "flip"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::DataCorruption);
    EXPECT_DEATH((void)bad.value(), "value\\(\\) on an error Result");
}

// The resilient engine paths report runtime faults as Status values
// with actionable messages — they must never exit the process.
TEST(RecoverablePaths, GpuCountMismatchIsStatusNotExit)
{
    UniNttEngine<F> engine(makeDgxA100(8));
    std::vector<F> x(1 << 10);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    FaultInjector inj(FaultModel::none());
    auto r = engine.forwardResilient(dist, inj);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(r.status().message().find("GPUs"), std::string::npos);
}

TEST(RecoverablePaths, ExhaustedRetriesIsStatusNotExit)
{
    UniNttEngine<F> engine(makeDgxA100(4));
    std::vector<F> x(1 << 10);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    FaultModel m;
    m.transientExchangeRate = 1.0;
    FaultInjector inj(m);
    auto r = engine.forwardResilient(dist, inj);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::TransientFault);
    EXPECT_NE(r.status().message().find("retries"), std::string::npos);
}

TEST(RecoverablePaths, PersistentCorruptionIsStatusNotExit)
{
    UniNttEngine<F> engine(makeDgxA100(4));
    std::vector<F> x(1 << 10);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    FaultModel m;
    m.bitFlipRate = 1.0;
    FaultInjector inj(m);
    auto r = engine.forwardResilient(dist, inj);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataCorruption);
    EXPECT_NE(r.status().message().find("retransmissions"),
              std::string::npos);
}

TEST(RecoverablePaths, DeviceLossWithDegradationDisabledIsStatus)
{
    UniNttEngine<F> engine(makeDgxA100(4));
    std::vector<F> x(1 << 10);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    FaultModel m;
    m.dropouts.push_back({1, 0});
    FaultInjector inj(m);
    ResilienceConfig rc;
    rc.allowDegraded = false;
    auto r = engine.forwardResilient(dist, inj, rc);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DeviceLost);
    EXPECT_NE(r.status().message().find("disabled"), std::string::npos);
}

TEST(RecoverablePaths, FatalPathsAreStillFatal)
{
    // The recoverable layer must not have softened user errors: bad
    // configuration still exits with a message.
    auto sys = makeDgxA100(3);
    EXPECT_EXIT(planNtt(20, sys, 8), ::testing::ExitedWithCode(1),
                "power-of-two GPU count");
}

TEST(Degenerate, SizeTwoTransformEverywhere)
{
    // The smallest legal transform runs through the whole engine.
    std::vector<F> x{F::fromU64(3), F::fromU64(5)};
    UniNttEngine<F> engine(makeDgxA100(1));
    auto dist = DistributedVector<F>::fromGlobal(x, 1);
    engine.forward(dist);
    auto out = dist.toGlobal();
    EXPECT_EQ(out[0], F::fromU64(8));
    EXPECT_EQ(out[1], -F::fromU64(2));
    engine.inverse(dist);
    EXPECT_EQ(dist.toGlobal(), x);
}

TEST(Degenerate, MinimumPerGpuChunk)
{
    // One element per GPU after the cross phase is still legal as
    // long as there is at least one local bit... and the planner
    // rejects anything smaller.
    auto sys = makeDgxA100(8);
    auto pl = planNtt(4, sys, 8); // chunk of 2 elements
    EXPECT_EQ(pl.chunkElems(), 2u);

    std::vector<F> x(16);
    for (size_t i = 0; i < 16; ++i)
        x[i] = F::fromU64(i + 1);
    auto expect = x;
    nttNoPermute(expect, NttDirection::Forward);
    UniNttEngine<F> engine(sys);
    auto dist = DistributedVector<F>::fromGlobal(x, 8);
    engine.forward(dist);
    EXPECT_EQ(dist.toGlobal(), expect);
}

TEST(Degenerate, BatchOfOneEqualsSingle)
{
    auto sys = makeDgxA100(2);
    UniNttEngine<F> engine(sys);
    auto a = engine.analyticRun(16, NttDirection::Forward, 1);
    std::vector<F> x(1 << 16);
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = F::fromU64(i * 7 + 1);
    std::vector<DistributedVector<F>> batch{
        DistributedVector<F>::fromGlobal(x, 2)};
    auto b = engine.forwardBatch(batch);
    EXPECT_DOUBLE_EQ(a.totalSeconds(), b.totalSeconds());
}

} // namespace
} // namespace unintt
