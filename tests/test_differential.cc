/**
 * @file
 * Differential test harness: many seeded random draws of
 * (field, logN, gpus), each checked element-for-element against every
 * independent transform implementation in the library.
 *
 * Per draw the UniNTT engine's forward output (bit-reversed order) is
 * compared with:
 *
 *   - the single-threaded radix-2 no-permute transform (ntt/radix2.hh),
 *   - the four-step and six-step baselines (natural order, compared
 *     through the bit-reversal mapping),
 *   - the O(n^2) direct DFT for the small sizes where it is feasible,
 *
 * and the engine's inverse is required to restore the original input
 * exactly. Draw parameters come from a fixed-seed Rng, so a failure
 * reproduces by draw index.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "field/babybear.hh"
#include "field/bn254.hh"
#include "field/dispatch.hh"
#include "field/goldilocks.hh"
#include "ntt/fourstep.hh"
#include "ntt/radix2.hh"
#include "ntt/reference.hh"
#include "ntt/sixstep.hh"
#include "sim/fault.hh"
#include "unintt/engine.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace unintt {
namespace {

constexpr int kDraws = 200;
constexpr unsigned kMinLogN = 4;
constexpr unsigned kMaxLogN = 14;
/** Direct O(n^2) DFT is only feasible at small sizes. */
constexpr unsigned kMaxNaiveLogN = 9;

struct Draw
{
    int index;
    unsigned field; // 0 = Goldilocks, 1 = BabyBear, 2 = BN254-Fr
    unsigned logN;
    unsigned gpus;
    uint64_t dataSeed;
};

/** One draw against every reference implementation. */
template <NttField F>
void
runDraw(const Draw &d)
{
    SCOPED_TRACE("draw " + std::to_string(d.index) + ": " +
                 std::string(F::kName) + " logN=" +
                 std::to_string(d.logN) + " gpus=" +
                 std::to_string(d.gpus));

    const size_t n = size_t{1} << d.logN;
    Rng rng(d.dataSeed);
    std::vector<F> input(n);
    for (auto &v : input)
        v = F::fromU64(rng.next());

    // Engine forward: natural in, bit-reversed out.
    auto sys = makeDgxA100(d.gpus);
    UniNttEngine<F> engine(sys);
    auto dist = DistributedVector<F>::fromGlobal(input, d.gpus);
    engine.forward(dist);
    const std::vector<F> got = dist.toGlobal();

    // Radix-2 no-permute reference, same ordering convention.
    std::vector<F> ref = input;
    nttNoPermute(ref, NttDirection::Forward);
    ASSERT_EQ(got, ref);

    // Four-step and six-step produce the natural-order spectrum;
    // the engine's output at i is the spectrum at bitReverse(i).
    const size_t n1 = size_t{1} << (d.logN / 2);
    const auto four = fourStepNtt(input, n1, NttDirection::Forward);
    const auto six = sixStepNtt(input, n1, NttDirection::Forward);
    for (size_t i = 0; i < n; ++i) {
        const size_t k = bitReverse(i, d.logN);
        ASSERT_EQ(got[i], four[k]) << "four-step mismatch at " << i;
        ASSERT_EQ(got[i], six[k]) << "six-step mismatch at " << i;
    }

    // Direct DFT oracle at feasible sizes.
    if (d.logN <= kMaxNaiveLogN) {
        const auto naive = naiveDft(input, NttDirection::Forward);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[i], naive[bitReverse(i, d.logN)])
                << "naive DFT mismatch at " << i;
    }

    // Inverse restores the input exactly (bit-reversed in, natural
    // out, n^-1 scaling included).
    engine.inverse(dist);
    ASSERT_EQ(dist.toGlobal(), input);
}

TEST(Differential, SeededDrawsAgainstAllReferences)
{
    Rng draw_rng(0xd1ffe7e57ULL);
    for (int i = 0; i < kDraws; ++i) {
        Draw d;
        d.index = i;
        d.field = static_cast<unsigned>(draw_rng.below(3));
        d.logN = kMinLogN + static_cast<unsigned>(
                                draw_rng.below(kMaxLogN - kMinLogN + 1));
        // 1, 2, 4 or 8 GPUs; logN >= 4 keeps every combination legal
        // (each GPU holds at least two elements).
        d.gpus = 1u << draw_rng.below(4);
        d.dataSeed = draw_rng.next();

        switch (d.field) {
        case 0:
            runDraw<Goldilocks>(d);
            break;
        case 1:
            runDraw<BabyBear>(d);
            break;
        default:
            runDraw<Bn254Fr>(d);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * Every schedule executor must tell the same story: identical phase
 * timelines between the analytic and functional interpreters, and
 * bit-identical data between serial, threaded and (fault-free)
 * resilient execution.
 */
void
expectPhasesIdentical(const SimReport &a, const SimReport &b)
{
    ASSERT_EQ(a.phases().size(), b.phases().size());
    for (size_t i = 0; i < a.phases().size(); ++i) {
        const auto &pa = a.phases()[i];
        const auto &pb = b.phases()[i];
        SCOPED_TRACE("phase " + std::to_string(i) + " '" + pa.name +
                     "'");
        EXPECT_EQ(pa.name, pb.name);
        EXPECT_EQ(pa.kind, pb.kind);
        EXPECT_EQ(pa.seconds, pb.seconds); // bitwise
        EXPECT_EQ(pa.hiddenSeconds, pb.hiddenSeconds);
        EXPECT_EQ(pa.step, pb.step);
        EXPECT_EQ(pa.level, pb.level);
    }
    EXPECT_EQ(a.peakDeviceBytes(), b.peakDeviceBytes());
}

template <NttField F>
void
runExecutorDraw(const Draw &d)
{
    SCOPED_TRACE("draw " + std::to_string(d.index) + ": " +
                 std::string(F::kName) + " logN=" +
                 std::to_string(d.logN) + " gpus=" +
                 std::to_string(d.gpus));

    const size_t n = size_t{1} << d.logN;
    Rng rng(d.dataSeed);
    std::vector<F> input(n);
    for (auto &v : input)
        v = F::fromU64(rng.next());
    auto sys = makeDgxA100(d.gpus);

    // Pinned off the tuning DB: the functional runs consult it and the
    // analytic run does not, so a DB hit would compare two configs.
    UniNttConfig serial_cfg = UniNttConfig::allOn();
    serial_cfg.hostThreads = 1;
    serial_cfg.useTuneDb = false;
    UniNttEngine<F> serial(sys, serial_cfg);
    UniNttConfig threaded_cfg = serial_cfg;
    threaded_cfg.hostThreads = 8;
    UniNttEngine<F> threaded(sys, threaded_cfg);

    // Functional serial vs functional threaded: bit-identical data and
    // identical simulated timelines.
    auto data_serial = DistributedVector<F>::fromGlobal(input, d.gpus);
    const SimReport rep_serial = serial.forward(data_serial);
    auto data_threaded =
        DistributedVector<F>::fromGlobal(input, d.gpus);
    const SimReport rep_threaded = threaded.forward(data_threaded);
    ASSERT_EQ(data_serial.toGlobal(), data_threaded.toGlobal());
    expectPhasesIdentical(rep_serial, rep_threaded);

    // Analytic vs functional: same schedule, same pricing, no data.
    const SimReport rep_analytic =
        serial.analyticRun(d.logN, NttDirection::Forward);
    expectPhasesIdentical(rep_analytic, rep_serial);

    // Resilient with a quiet injector: the decorator must be a
    // functional no-op (spot check included).
    FaultInjector quiet{FaultModel{}};
    auto data_resilient =
        DistributedVector<F>::fromGlobal(input, d.gpus);
    Result<SimReport> r = serial.forwardResilient(data_resilient, quiet);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(data_resilient.toGlobal(), data_serial.toGlobal());
}

/**
 * Fused tile kernels against the per-stage path: for one seeded draw,
 * every combination of direction, thread count and tile size must
 * produce output byte-identical to the unfused serial engine. This is
 * the contract that lets the schedule fuse stages freely: fusion is a
 * memory-traffic optimization, never an arithmetic one.
 */
template <NttField F>
void
runFusionDraw(const Draw &d)
{
    SCOPED_TRACE("draw " + std::to_string(d.index) + ": " +
                 std::string(F::kName) + " logN=" +
                 std::to_string(d.logN) + " gpus=" +
                 std::to_string(d.gpus));

    const size_t n = size_t{1} << d.logN;
    Rng rng(d.dataSeed);
    std::vector<F> input(n);
    for (auto &v : input)
        v = F::fromU64(rng.next());
    auto sys = makeDgxA100(d.gpus);

    for (auto dir : {NttDirection::Forward, NttDirection::Inverse}) {
        SCOPED_TRACE(dir == NttDirection::Forward ? "forward"
                                                  : "inverse");
        UniNttConfig base_cfg;
        base_cfg.fuseLocalPasses = false;
        base_cfg.hostThreads = 1;
        UniNttEngine<F> baseline(sys, base_cfg);
        auto base = DistributedVector<F>::fromGlobal(input, d.gpus);
        if (dir == NttDirection::Forward)
            baseline.forward(base);
        else
            baseline.inverse(base);
        const std::vector<F> want = base.toGlobal();

        // hostTileLog2 = 0 derives the tile from the cache model; 4
        // and 20 clamp to the extremes, forcing many tiny groups and
        // one maximal group respectively.
        for (unsigned tile : {0u, 4u, 20u}) {
            for (unsigned threads : {1u, 4u, 16u}) {
                SCOPED_TRACE("tile=" + std::to_string(tile) +
                             " threads=" + std::to_string(threads));
                UniNttConfig cfg;
                cfg.hostTileLog2 = tile;
                cfg.hostThreads = threads;
                UniNttEngine<F> fused(sys, cfg);
                auto data =
                    DistributedVector<F>::fromGlobal(input, d.gpus);
                if (dir == NttDirection::Forward)
                    fused.forward(data);
                else
                    fused.inverse(data);
                ASSERT_EQ(data.toGlobal(), want);
            }
        }
    }
}

TEST(Differential, FusedMatchesPerStageAcrossTilesAndThreads)
{
    // Same draw sequence as the other differential tests; the matrix
    // per draw (2 directions x 3 tiles x 3 thread counts) is the
    // expensive part, so the draw count is reduced while keeping the
    // (field, logN, gpus) marginals.
    Rng draw_rng(0xd1ffe7e57ULL);
    for (int i = 0; i < kDraws; ++i) {
        Draw d;
        d.index = i;
        d.field = static_cast<unsigned>(draw_rng.below(3));
        d.logN = kMinLogN + static_cast<unsigned>(
                                draw_rng.below(kMaxLogN - kMinLogN + 1));
        d.gpus = 1u << draw_rng.below(4);
        d.dataSeed = draw_rng.next();
        if (i % 4 != 0)
            continue;

        switch (d.field) {
        case 0:
            runFusionDraw<Goldilocks>(d);
            break;
        case 1:
            runFusionDraw<BabyBear>(d);
            break;
        default:
            runFusionDraw<Bn254Fr>(d);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * DAG-overlapped execution against the linear path: for one seeded
 * draw, every combination of direction, thread count and tile size
 * must produce output byte-identical to the linear (overlap-off)
 * serial engine, and the analytic reports must agree on fabric bytes
 * and message counts — only the makespan may shrink.
 */
template <NttField F>
void
runOverlapDraw(const Draw &d)
{
    SCOPED_TRACE("draw " + std::to_string(d.index) + ": " +
                 std::string(F::kName) + " logN=" +
                 std::to_string(d.logN) + " gpus=" +
                 std::to_string(d.gpus));

    const size_t n = size_t{1} << d.logN;
    Rng rng(d.dataSeed);
    std::vector<F> input(n);
    for (auto &v : input)
        v = F::fromU64(rng.next());
    auto sys = makeDgxA100(d.gpus);

    for (auto dir : {NttDirection::Forward, NttDirection::Inverse}) {
        SCOPED_TRACE(dir == NttDirection::Forward ? "forward"
                                                  : "inverse");
        UniNttConfig linear_cfg = UniNttConfig::allOn();
        linear_cfg.overlapComm = false;
        linear_cfg.hostThreads = 1;
        UniNttEngine<F> linear(sys, linear_cfg);
        auto base = DistributedVector<F>::fromGlobal(input, d.gpus);
        if (dir == NttDirection::Forward)
            linear.forward(base);
        else
            linear.inverse(base);
        const std::vector<F> want = base.toGlobal();
        const SimReport rep_linear = linear.analyticRun(d.logN, dir);

        for (unsigned tile : {0u, 4u, 20u}) {
            for (unsigned threads : {1u, 4u, 16u}) {
                SCOPED_TRACE("tile=" + std::to_string(tile) +
                             " threads=" + std::to_string(threads));
                UniNttConfig cfg = UniNttConfig::allOn();
                cfg.hostTileLog2 = tile;
                cfg.hostThreads = threads;
                UniNttEngine<F> dag(sys, cfg);
                auto data =
                    DistributedVector<F>::fromGlobal(input, d.gpus);
                if (dir == NttDirection::Forward)
                    dag.forward(data);
                else
                    dag.inverse(data);
                ASSERT_EQ(data.toGlobal(), want);
            }
        }

        // Analytic agreement: the fabric ledger is dispatch-invariant;
        // makespan and visible comm may only shrink under overlap.
        UniNttConfig dag_cfg = UniNttConfig::allOn();
        dag_cfg.hostThreads = 1;
        UniNttEngine<F> dag(sys, dag_cfg);
        const SimReport rep_dag = dag.analyticRun(d.logN, dir);
        EXPECT_EQ(rep_dag.totalCommStats().bytesPerGpu,
                  rep_linear.totalCommStats().bytesPerGpu);
        EXPECT_EQ(rep_dag.totalCommStats().messages,
                  rep_linear.totalCommStats().messages);
        EXPECT_LE(rep_dag.totalSeconds(), rep_linear.totalSeconds());
        EXPECT_LE(rep_dag.commSeconds(), rep_linear.commSeconds());
        // Same phase skeleton: the overlay never adds or renames
        // phases, it only re-prices them.
        ASSERT_EQ(rep_dag.phases().size(), rep_linear.phases().size());
        for (size_t i = 0; i < rep_dag.phases().size(); ++i) {
            EXPECT_EQ(rep_dag.phases()[i].name,
                      rep_linear.phases()[i].name);
            EXPECT_EQ(rep_dag.phases()[i].kind,
                      rep_linear.phases()[i].kind);
        }
    }
}

TEST(Differential, DagOverlapMatchesLinearAcrossTilesAndThreads)
{
    // Same draw sequence as the other differential tests; like the
    // fusion matrix, the per-draw combination count (2 directions x 3
    // tiles x 3 thread counts) is the expensive part, so draws are
    // subsampled while keeping the (field, logN, gpus) marginals.
    Rng draw_rng(0xd1ffe7e57ULL);
    for (int i = 0; i < kDraws; ++i) {
        Draw d;
        d.index = i;
        d.field = static_cast<unsigned>(draw_rng.below(3));
        d.logN = kMinLogN + static_cast<unsigned>(
                                draw_rng.below(kMaxLogN - kMinLogN + 1));
        d.gpus = 1u << draw_rng.below(4);
        d.dataSeed = draw_rng.next();
        if (i % 4 != 2)
            continue;

        switch (d.field) {
        case 0:
            runOverlapDraw<Goldilocks>(d);
            break;
        case 1:
            runOverlapDraw<BabyBear>(d);
            break;
        default:
            runOverlapDraw<Bn254Fr>(d);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * ABFT hardening against the unhardened clean path: the checksum
 * layer must be observation-only on a fault-free run — for one seeded
 * draw, every combination of direction, tile size, thread count and
 * dispatch mode with ABFT on must produce output byte-identical to
 * the plain (non-resilient) transform and to the ABFT-off resilient
 * run, while actually performing checks.
 */
template <NttField F>
void
runAbftDraw(const Draw &d)
{
    SCOPED_TRACE("draw " + std::to_string(d.index) + ": " +
                 std::string(F::kName) + " logN=" +
                 std::to_string(d.logN) + " gpus=" +
                 std::to_string(d.gpus));

    const size_t n = size_t{1} << d.logN;
    Rng rng(d.dataSeed);
    std::vector<F> input(n);
    for (auto &v : input)
        v = F::fromU64(rng.next());
    auto sys = makeDgxA100(d.gpus);

    for (auto dir : {NttDirection::Forward, NttDirection::Inverse}) {
        SCOPED_TRACE(dir == NttDirection::Forward ? "forward"
                                                  : "inverse");
        UniNttEngine<F> plain(sys);
        auto base = DistributedVector<F>::fromGlobal(input, d.gpus);
        if (dir == NttDirection::Forward)
            plain.forward(base);
        else
            plain.inverse(base);
        const std::vector<F> want = base.toGlobal();

        for (bool abft : {false, true}) {
            for (bool overlap : {false, true}) {
                for (unsigned tile : {0u, 4u, 20u}) {
                    for (unsigned threads : {1u, 4u}) {
                        SCOPED_TRACE(
                            "abft=" + std::to_string(abft) +
                            " overlap=" + std::to_string(overlap) +
                            " tile=" + std::to_string(tile) +
                            " threads=" + std::to_string(threads));
                        UniNttConfig cfg = UniNttConfig::allOn();
                        cfg.overlapComm = overlap;
                        cfg.hostTileLog2 = tile;
                        cfg.hostThreads = threads;
                        UniNttEngine<F> engine(sys, cfg);
                        ResilienceConfig rc;
                        rc.abft = abft;
                        FaultInjector inj(FaultModel::none());
                        auto data = DistributedVector<F>::fromGlobal(
                            input, d.gpus);
                        Result<SimReport> r =
                            dir == NttDirection::Forward
                                ? engine.forwardResilient(data, inj,
                                                          rc)
                                : engine.inverseResilient(data, inj,
                                                          rc);
                        ASSERT_TRUE(r.ok())
                            << r.status().toString();
                        ASSERT_EQ(data.toGlobal(), want);
                        const FaultStats &fs =
                            r.value().faultStats();
                        if (abft)
                            EXPECT_GT(fs.abftChecks, 0u);
                        else
                            EXPECT_EQ(fs.abftChecks, 0u);
                        EXPECT_EQ(fs.abftCatches, 0u);
                        EXPECT_EQ(fs.tilesRecomputed, 0u);
                    }
                }
            }
        }
    }
}

TEST(Differential, AbftOnMatchesCleanRunsAcrossTilesAndThreads)
{
    // Same draw sequence as the other differential tests; the matrix
    // per draw (2 directions x 2 abft x 2 dispatch x 3 tiles x 2
    // thread counts) is the expensive part, so draws are subsampled
    // on a residue disjoint from the fusion/overlap matrices.
    Rng draw_rng(0xd1ffe7e57ULL);
    for (int i = 0; i < kDraws; ++i) {
        Draw d;
        d.index = i;
        d.field = static_cast<unsigned>(draw_rng.below(3));
        d.logN = kMinLogN + static_cast<unsigned>(
                                draw_rng.below(kMaxLogN - kMinLogN + 1));
        d.gpus = 1u << draw_rng.below(4);
        d.dataSeed = draw_rng.next();
        if (i % 8 != 5)
            continue;

        switch (d.field) {
        case 0:
            runAbftDraw<Goldilocks>(d);
            break;
        case 1:
            runAbftDraw<BabyBear>(d);
            break;
        default:
            runAbftDraw<Bn254Fr>(d);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(Differential, KernelCostMatchesButterflyWeights)
{
    // The shared cost hint that sizes hostParallelFor work chunks:
    // forward butterflies price at 3 (add, sub, mul), inverse at 4
    // (the twiddle multiply feeds both outputs plus the final scale).
    EXPECT_EQ(kernelCost(0, NttDirection::Forward), 0u);
    EXPECT_EQ(kernelCost(100, NttDirection::Forward), 300u);
    EXPECT_EQ(kernelCost(100, NttDirection::Inverse), 400u);
    EXPECT_EQ(kernelCost(1, NttDirection::Forward), 3u);
    EXPECT_EQ(kernelCost(1, NttDirection::Inverse), 4u);
}

TEST(Differential, ThreadSweepStaysWithinCostEnvelope)
{
    // Not a perf assertion, a regression tripwire: threading a 2^16
    // transform on however many cores CI has must never be
    // catastrophically slower than serial (e.g. per-element fork/join
    // or lost cost hints). The bound is deliberately generous.
    using F = Goldilocks;
    auto sys = makeDgxA100(1);
    Rng rng(0x7157eedULL);
    std::vector<F> input(1ULL << 16);
    for (auto &v : input)
        v = F::fromU64(rng.next());

    auto timeWith = [&](unsigned threads) {
        UniNttConfig cfg;
        cfg.hostThreads = threads;
        UniNttEngine<F> engine(sys, cfg);
        auto data = DistributedVector<F>::fromGlobal(input, 1);
        engine.forward(data); // warm caches
        const auto t0 = std::chrono::steady_clock::now();
        engine.forward(data);
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };

    const double serial = timeWith(1);
    for (unsigned threads : {2u, 4u, 16u}) {
        const double threaded = timeWith(threads);
        EXPECT_LT(threaded, serial * 10 + 0.05)
            << "threads=" << threads;
    }
}

TEST(Differential, ExecutorsAgreeOnSeededDraws)
{
    // The same draw sequence as SeededDrawsAgainstAllReferences, so a
    // failure here cross-references the same (field, logN, gpus) draw.
    Rng draw_rng(0xd1ffe7e57ULL);
    for (int i = 0; i < kDraws; ++i) {
        Draw d;
        d.index = i;
        d.field = static_cast<unsigned>(draw_rng.below(3));
        d.logN = kMinLogN + static_cast<unsigned>(
                                draw_rng.below(kMaxLogN - kMinLogN + 1));
        d.gpus = 1u << draw_rng.below(4);
        d.dataSeed = draw_rng.next();

        switch (d.field) {
        case 0:
            runExecutorDraw<Goldilocks>(d);
            break;
        case 1:
            runExecutorDraw<BabyBear>(d);
            break;
        default:
            runExecutorDraw<Bn254Fr>(d);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * The acceleration-path byte-identity matrix: for one seeded draw,
 * every registered ISA path must reproduce the forced-scalar bytes
 * under every combination of direction, thread count, fused/unfused
 * local passes, and ABFT on/off. This is the contract that makes the
 * router invisible: routing is a pure perf decision, never a numeric
 * one.
 */
template <NttField F>
void
runIsaDraw(const Draw &d)
{
    SCOPED_TRACE("draw " + std::to_string(d.index) + ": " +
                 std::string(F::kName) + " logN=" +
                 std::to_string(d.logN) + " gpus=" +
                 std::to_string(d.gpus));

    const size_t n = size_t{1} << d.logN;
    Rng rng(d.dataSeed);
    std::vector<F> input(n);
    for (auto &v : input)
        v = F::fromU64(rng.next());
    auto sys = makeDgxA100(d.gpus);

    for (auto dir : {NttDirection::Forward, NttDirection::Inverse}) {
        SCOPED_TRACE(dir == NttDirection::Forward ? "forward"
                                                  : "inverse");
        UniNttConfig scalar_cfg;
        scalar_cfg.isaPath = IsaPath::Scalar;
        scalar_cfg.hostThreads = 1;
        UniNttEngine<F> scalar(sys, scalar_cfg);
        auto base = DistributedVector<F>::fromGlobal(input, d.gpus);
        if (dir == NttDirection::Forward)
            scalar.forward(base);
        else
            scalar.inverse(base);
        const std::vector<F> want = base.toGlobal();

        for (IsaPath isa : availableIsaPaths()) {
            for (bool fused : {true, false}) {
                for (unsigned threads : {1u, 4u, 16u}) {
                    SCOPED_TRACE(std::string("isa=") +
                                 isaPathName(isa) + " fused=" +
                                 std::to_string(fused) + " threads=" +
                                 std::to_string(threads));
                    UniNttConfig cfg;
                    cfg.isaPath = isa;
                    cfg.fuseLocalPasses = fused;
                    cfg.hostThreads = threads;
                    UniNttEngine<F> engine(sys, cfg);

                    // ABFT off: the plain functional executor.
                    auto data = DistributedVector<F>::fromGlobal(
                        input, d.gpus);
                    if (dir == NttDirection::Forward)
                        engine.forward(data);
                    else
                        engine.inverse(data);
                    ASSERT_EQ(data.toGlobal(), want);

                    // ABFT on: the hardened executor re-derives the
                    // checksums and recovery path through the same
                    // kernel table.
                    ResilienceConfig rc;
                    rc.abft = true;
                    FaultInjector inj(FaultModel::none());
                    auto hard = DistributedVector<F>::fromGlobal(
                        input, d.gpus);
                    Result<SimReport> r =
                        dir == NttDirection::Forward
                            ? engine.forwardResilient(hard, inj, rc)
                            : engine.inverseResilient(hard, inj, rc);
                    ASSERT_TRUE(r.ok()) << r.status().toString();
                    ASSERT_EQ(hard.toGlobal(), want);
                }
            }
        }
    }
}

TEST(Differential, IsaPathsMatchScalarAcrossExecutionMatrix)
{
    // Same draw sequence as the other differential tests; the
    // per-draw matrix (paths x 2 directions x 3 threads x fused x
    // abft) is the expensive part, so draws are subsampled on a
    // residue disjoint from the fusion/overlap/abft matrices.
    Rng draw_rng(0xd1ffe7e57ULL);
    for (int i = 0; i < kDraws; ++i) {
        Draw d;
        d.index = i;
        d.field = static_cast<unsigned>(draw_rng.below(3));
        d.logN = kMinLogN + static_cast<unsigned>(
                                draw_rng.below(kMaxLogN - kMinLogN + 1));
        d.gpus = 1u << draw_rng.below(4);
        d.dataSeed = draw_rng.next();
        if (i % 8 != 3)
            continue;

        switch (d.field) {
        case 0:
            runIsaDraw<Goldilocks>(d);
            break;
        case 1:
            runIsaDraw<BabyBear>(d);
            break;
        default:
            runIsaDraw<Bn254Fr>(d);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * Edge-case spans straight against the kernel tables: every length
 * around and below the lane width, misaligned heads (pointers offset
 * off the allocation), and non-unit twiddle strides must match the
 * scalar reference element-for-element. This is the layer the engine
 * matrix above cannot isolate: a masked-tail or bounce-buffer bug
 * shows up here with a one-line repro.
 */
template <NttField F>
void
checkSpanEdgeCases(const FieldKernels<F> &fk)
{
    SCOPED_TRACE(std::string(F::kName) + " table " + fk.name);
    const FieldKernels<F> scalar = scalarKernelTable<F>();
    Rng rng(0x51a9ed9eULL + fk.lanes);
    auto draw = [&](size_t count, size_t pad) {
        std::vector<F> v(count + pad);
        for (auto &x : v)
            x = F::fromU64(rng.next());
        return v;
    };

    std::vector<size_t> lens{0, 1, 2, 3, 33, 100};
    if (fk.lanes > 1) {
        lens.push_back(fk.lanes - 1);
        lens.push_back(fk.lanes);
        lens.push_back(fk.lanes + 1);
        lens.push_back(2 * fk.lanes + 1);
    }
    for (size_t len : lens) {
        for (size_t off : {size_t{0}, size_t{1}}) { // misaligned head
            for (size_t stride : {size_t{1}, size_t{2}, size_t{3}}) {
                SCOPED_TRACE("len=" + std::to_string(len) + " off=" +
                             std::to_string(off) + " stride=" +
                             std::to_string(stride));
                const std::vector<F> lo0 = draw(len, off);
                const std::vector<F> hi0 = draw(len, off);
                const std::vector<F> tw = draw(len * stride + 1, off);

                auto lo_a = lo0, hi_a = hi0;
                auto lo_b = lo0, hi_b = hi0;
                fk.bflyFwd(lo_a.data() + off, hi_a.data() + off,
                           tw.data() + off, stride, len);
                scalar.bflyFwd(lo_b.data() + off, hi_b.data() + off,
                               tw.data() + off, stride, len);
                ASSERT_EQ(lo_a, lo_b);
                ASSERT_EQ(hi_a, hi_b);

                lo_a = lo0; hi_a = hi0; lo_b = lo0; hi_b = hi0;
                fk.bflyInv(lo_a.data() + off, hi_a.data() + off,
                           tw.data() + off, stride, len);
                scalar.bflyInv(lo_b.data() + off, hi_b.data() + off,
                               tw.data() + off, stride, len);
                ASSERT_EQ(lo_a, lo_b);
                ASSERT_EQ(hi_a, hi_b);

                if (stride != 1)
                    continue; // scale/dot spans are unit-stride
                const F s = F::fromU64(rng.next());
                lo_a = lo0; lo_b = lo0;
                fk.scaleSpan(lo_a.data() + off, s, len);
                scalar.scaleSpan(lo_b.data() + off, s, len);
                ASSERT_EQ(lo_a, lo_b);

                ASSERT_EQ(fk.dotSpan(tw.data() + off,
                                     lo0.data() + off, len),
                          scalar.dotSpan(tw.data() + off,
                                         lo0.data() + off, len));

                // hornerSpan across the four-chain grouping (k = 1..5:
                // every chain count, and a full group plus one), with
                // the points 0 and 1 in different chain slots; the
                // scalar table is also held to the slot's definition.
                const F r0 = F::fromU64(rng.next());
                const F r1 = F::fromU64(rng.next());
                const F r2 = F::fromU64(rng.next());
                const F zero = F::zero(), one = F::one();
                const std::vector<std::vector<F>> point_sets{
                    {zero}, {one}, {r0}, {r1, one}, {one, r2, zero},
                    {zero, one, r0, r1}, {r0, r1, zero, r2, one}};
                for (const std::vector<F> &pts : point_sets) {
                    std::vector<F> got(pts.size()), want(pts.size());
                    fk.hornerSpan(lo0.data() + off, len, pts.data(),
                                  got.data(), pts.size());
                    scalar.hornerSpan(lo0.data() + off, len, pts.data(),
                                      want.data(), pts.size());
                    ASSERT_EQ(got, want) << "k=" << pts.size();
                    for (size_t c = 0; c < pts.size(); ++c) {
                        F direct = zero, xp = one;
                        for (size_t i = 0; i < len; ++i) {
                            direct = direct + lo0[off + i] * xp;
                            xp = xp * pts[c];
                        }
                        ASSERT_EQ(want[c], direct)
                            << "k=" << pts.size() << " point " << c;
                    }
                }
            }
        }
    }

    // Radix-4 rows across the branchy twiddle split (j0 straddling
    // (hs+2)/3) and the radix-8 first rank.
    for (size_t hs : {size_t{16}, size_t{48}}) {
        const std::vector<F> tw0 = draw(3 * hs, 0);
        const std::vector<F> tw1 = draw(hs, 0);
        const F im = F::fromU64(rng.next());
        for (size_t j0 : {size_t{0}, size_t{1}, (hs + 2) / 3 - 1,
                          (hs + 2) / 3, hs / 2}) {
            for (size_t cnt : {size_t{1}, size_t{3}, size_t{7}}) {
                if (j0 + cnt > hs)
                    continue;
                SCOPED_TRACE("hs=" + std::to_string(hs) + " j0=" +
                             std::to_string(j0) + " cnt=" +
                             std::to_string(cnt));
                std::vector<std::vector<F>> rows_a, rows_b;
                for (int r = 0; r < 4; ++r) {
                    rows_a.push_back(draw(cnt, 0));
                    rows_b.push_back(rows_a.back());
                }
                fk.r4Fwd(rows_a[0].data(), rows_a[1].data(),
                         rows_a[2].data(), rows_a[3].data(),
                         tw0.data(), tw1.data(), im, j0, hs, cnt);
                scalar.r4Fwd(rows_b[0].data(), rows_b[1].data(),
                             rows_b[2].data(), rows_b[3].data(),
                             tw0.data(), tw1.data(), im, j0, hs, cnt);
                for (int r = 0; r < 4; ++r)
                    ASSERT_EQ(rows_a[r], rows_b[r]) << "row " << r;
            }
        }
    }
    for (size_t q8 : {size_t{1}, size_t{3}, size_t{8}, size_t{13}}) {
        SCOPED_TRACE("q8=" + std::to_string(q8));
        const std::vector<F> twa = draw(4 * q8, 0);
        const std::vector<F> twb = draw(2 * q8, 0);
        const std::vector<F> twc = draw(q8, 0);
        std::vector<std::vector<F>> rows_a, rows_b;
        for (int r = 0; r < 8; ++r) {
            rows_a.push_back(draw(q8, 0));
            rows_b.push_back(rows_a.back());
        }
        fk.r8Fwd(rows_a[0].data(), rows_a[1].data(), rows_a[2].data(),
                 rows_a[3].data(), rows_a[4].data(), rows_a[5].data(),
                 rows_a[6].data(), rows_a[7].data(), twa.data(),
                 twb.data(), twc.data(), q8);
        scalar.r8Fwd(rows_b[0].data(), rows_b[1].data(),
                     rows_b[2].data(), rows_b[3].data(),
                     rows_b[4].data(), rows_b[5].data(),
                     rows_b[6].data(), rows_b[7].data(), twa.data(),
                     twb.data(), twc.data(), q8);
        for (int r = 0; r < 8; ++r)
            ASSERT_EQ(rows_a[r], rows_b[r]) << "row " << r;
    }
}

TEST(Differential, SpanKernelEdgeCasesMatchScalar)
{
    for (IsaPath isa : availableIsaPaths()) {
        checkSpanEdgeCases<Goldilocks>(fieldKernels<Goldilocks>(isa));
        checkSpanEdgeCases<BabyBear>(fieldKernels<BabyBear>(isa));
        checkSpanEdgeCases<Bn254Fr>(fieldKernels<Bn254Fr>(isa));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * Forced-path engine round trips per registered table: forcing every
 * available path through UniNttConfig::isaPath must (a) actually bind
 * that path (visible in hostExecStats), (b) round-trip
 * forward-then-inverse back to the input exactly.
 */
template <NttField F>
void
checkForcedPathRoundTrip(IsaPath isa)
{
    SCOPED_TRACE(std::string(F::kName) + " isa=" + isaPathName(isa));
    auto sys = makeDgxA100(2);
    UniNttConfig cfg;
    cfg.isaPath = isa;
    UniNttEngine<F> engine(sys, cfg);
    const FieldKernels<F> &fk = engine.kernels();
    EXPECT_EQ(fk.path, resolveIsaPath(isa));

    Rng rng(0xf0cced + static_cast<uint64_t>(isa));
    std::vector<F> input(1ULL << 12);
    for (auto &v : input)
        v = F::fromU64(rng.next());
    auto dist = DistributedVector<F>::fromGlobal(input, 2);
    SimReport rep = engine.forward(dist);
    EXPECT_EQ(rep.hostExecStats().isaPath, std::string(fk.name));
    EXPECT_EQ(rep.hostExecStats().isaLanes, fk.lanes);
    EXPECT_GT(rep.hostExecStats().isaDispatches, 0u);
    engine.inverse(dist);
    ASSERT_EQ(dist.toGlobal(), input);
}

TEST(Differential, ForcedPathEngineRoundTripsPerTable)
{
    for (IsaPath isa : availableIsaPaths()) {
        checkForcedPathRoundTrip<Goldilocks>(isa);
        checkForcedPathRoundTrip<BabyBear>(isa);
        checkForcedPathRoundTrip<Bn254Fr>(isa);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(Differential, KernelCostIsLaneAware)
{
    // The lane-aware overload divides the scalar weights by the SIMD
    // width (work chunks scale with vector throughput) but never
    // prices nonzero work at zero.
    EXPECT_EQ(kernelCost(100, NttDirection::Forward, 1), 300u);
    EXPECT_EQ(kernelCost(100, NttDirection::Inverse, 1), 400u);
    EXPECT_EQ(kernelCost(100, NttDirection::Forward, 4), 75u);
    EXPECT_EQ(kernelCost(100, NttDirection::Inverse, 8), 50u);
    EXPECT_EQ(kernelCost(0, NttDirection::Forward, 8), 0u);
    EXPECT_EQ(kernelCost(1, NttDirection::Forward, 8), 1u);
    EXPECT_EQ(kernelCost(1, NttDirection::Inverse, 16), 1u);
}

TEST(Differential, RouterResolutionLadder)
{
    // CI runs the whole suite under UNINTT_FORCE_ISA=scalar as well
    // as auto-routed; with a force in effect every request resolves
    // to the forced path, so the per-request ladder expectations only
    // apply to the unforced case.
    const bool forced = forcedIsaPath() != IsaPath::Auto;
    // Auto resolves to a concrete path, never to Auto.
    EXPECT_NE(resolveIsaPath(IsaPath::Auto), IsaPath::Auto);
    if (!forced) {
        // Scalar is always available and resolves to itself.
        EXPECT_EQ(resolveIsaPath(IsaPath::Scalar), IsaPath::Scalar);
        // Auto resolves to the best probed path.
        EXPECT_EQ(resolveIsaPath(IsaPath::Auto), bestIsaPath());
        // Neon is stubbed: requesting it lands on scalar, not a
        // crash.
        if (!isaPathAvailable(IsaPath::Neon)) {
            EXPECT_EQ(resolveIsaPath(IsaPath::Neon), IsaPath::Scalar);
        }
        // A forced-down request falls the ladder, never up: if
        // AVX-512 is unavailable the request lands elsewhere.
        if (!isaPathAvailable(IsaPath::Avx512)) {
            EXPECT_NE(resolveIsaPath(IsaPath::Avx512),
                      IsaPath::Avx512);
        }
        // Every available path resolves to itself.
        for (IsaPath p : availableIsaPaths())
            EXPECT_EQ(resolveIsaPath(p), p);
    } else {
        for (IsaPath p : availableIsaPaths())
            EXPECT_EQ(resolveIsaPath(p), resolveIsaPath(IsaPath::Auto));
    }
    // Lane widths are sane either way.
    for (IsaPath p : availableIsaPaths()) {
        EXPECT_GE(isaLaneWidth(p, sizeof(Goldilocks)), 1u);
        EXPECT_GE(isaLaneWidth(p, sizeof(Bn254Fr)), 1u);
    }
    EXPECT_EQ(isaLaneWidth(IsaPath::Scalar, sizeof(Goldilocks)),
              forced ? isaLaneWidth(IsaPath::Auto, sizeof(Goldilocks))
                     : 1u);
}

} // namespace
} // namespace unintt
