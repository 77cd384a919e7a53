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
 *   - the four-step decomposition (natural order, compared through the
 *     bit-reversal mapping),
 *   - the O(n^2) direct DFT for the small sizes where it is feasible,
 *
 * and the engine's inverse is required to restore the original input
 * exactly. Draw parameters come from a fixed-seed Rng, so a failure
 * reproduces by draw index.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>

#include "field/babybear.hh"
#include "field/bn254.hh"
#include "field/dispatch.hh"
#include "field/goldilocks.hh"
#include "ntt/fourstep.hh"
#include "ntt/radix2.hh"
#include "ntt/reference.hh"
#include "sim/fault.hh"
#include "unintt/engine.hh"
#include "util/bitops.hh"
#include "util/checksum.hh"
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

    // Four-step produces the natural-order spectrum; the engine's
    // output at i is the spectrum at bitReverse(i).
    const size_t n1 = size_t{1} << (d.logN / 2);
    const auto four = fourStepNtt(input, n1, NttDirection::Forward);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], four[bitReverse(i, d.logN)])
            << "four-step mismatch at " << i;

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
 * timelines between the analytic, functional and (fault-free)
 * resilient interpreters, and bit-identical data between serial,
 * threaded and resilient execution.
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
        EXPECT_EQ(pa.comm.bytesPerGpu, pb.comm.bytesPerGpu);
        EXPECT_EQ(pa.comm.messages, pb.comm.messages);
        EXPECT_EQ(pa.comm.retries, pb.comm.retries);
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

    UniNttConfig serial_cfg = UniNttConfig::allOn();
    serial_cfg.hostThreads = 1;
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

    // With no fault injected, a resilient run must report exactly what
    // the analytic executor prices for the same resilient schedule: one
    // overlap-pricing rule in every dispatch mode and direction, with
    // ABFT on or off.
    const PerfModel perf(sys.gpu, fieldCostOf<F>());
    for (bool overlap : {true, false}) {
        UniNttConfig cfg = serial_cfg;
        cfg.overlapComm = overlap;
        const UniNttEngine<F> engine(sys, cfg);
        for (NttDirection dir :
             {NttDirection::Forward, NttDirection::Inverse}) {
            for (bool abft : {true, false}) {
                SCOPED_TRACE(std::string("overlap ") +
                             (overlap ? "on" : "off") + ", " +
                             toString(dir) + ", abft " +
                             (abft ? "on" : "off"));
                ScheduleOptions opts;
                opts.resilient = true;
                opts.spotChecks = 4;
                opts.abft = abft;
                auto sched = std::make_shared<const StageSchedule>(
                    compileSchedule(engine.plan(d.logN), sys, dir,
                                    sizeof(F), engine.config(),
                                    CostConstants{}, opts));
                SimReport priced;
                priced.setPeakDeviceBytes(sched->peakDeviceBytes);
                AnalyticStepExecutor analytic(sys, perf, priced);
                ASSERT_TRUE(dispatchSchedule(sched, analytic).ok());

                ResilienceConfig rc;
                rc.spotChecks = 4;
                rc.abft = abft;
                FaultInjector none{FaultModel{}};
                auto data = DistributedVector<F>::fromGlobal(input, d.gpus);
                Result<SimReport> res =
                    dir == NttDirection::Forward
                        ? engine.forwardResilient(data, none, rc)
                        : engine.inverseResilient(data, none, rc);
                ASSERT_TRUE(res.ok()) << res.status().toString();
                expectPhasesIdentical(res.value(), priced);
            }
        }
    }
}

/**
 * Fused tile kernels against the per-stage path: for one seeded draw,
 * every combination of direction and thread count must produce output
 * byte-identical to the unfused serial engine. This is the contract
 * that lets the schedule fuse stages freely: fusion is a memory-
 * traffic optimization, never an arithmetic one.
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

        for (unsigned threads : {1u, 4u, 16u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            UniNttConfig cfg;
            cfg.hostThreads = threads;
            UniNttEngine<F> fused(sys, cfg);
            auto data = DistributedVector<F>::fromGlobal(input, d.gpus);
            if (dir == NttDirection::Forward)
                fused.forward(data);
            else
                fused.inverse(data);
            ASSERT_EQ(data.toGlobal(), want);
        }
    }
}

/** runFusionDraw for the draw's field. */
void
runFusionDrawOfField(const Draw &d)
{
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
}

TEST(Differential, FusedMatchesPerStageAcrossTilesAndThreads)
{
    // A local phase longer than the fused tile splits into a streamed
    // head group plus a pinned tail group. The seeded draws stop at
    // 2^14, where only BN254-Fr on one GPU splits, so fixed draws
    // split a Goldilocks and a BN254-Fr phase on one and two GPUs.
    // A single head super-block runs column slices at 4 and 16
    // threads: the two-stage heads reach r4Fwd/r4Inv there, and the
    // four-stage head of 2^19 on one GPU reaches r8Fwd/r8Inv plus the
    // radix-2 remainder.
    //
    // A tail group hands its stages below the sub-lane width W to
    // subLaneFwd/subLaneInv. Goldilocks 2^10-2^16 on two GPUs (the
    // service's shapes) have tail groups of 9, 10, 11, 13, 14 and 15
    // stages, so their upper stages leave every remainder past whole
    // radix-8 triples. BabyBear groups of two and three stages are
    // shorter than log2(16): on the 16-lane table they run in the
    // radix loops alone.
    const Draw split[] = {{-1, 0, 17, 1, 0x5eed17ULL},
                          {-2, 0, 18, 2, 0x5eed18ULL},
                          {-3, 2, 15, 1, 0x5eed15ULL},
                          {-4, 2, 16, 2, 0x5eed16ULL},
                          {-5, 0, 19, 1, 0x5eed19ULL},
                          {-6, 0, 10, 2, 0x5eed0aULL},
                          {-7, 0, 11, 2, 0x5eed0bULL},
                          {-8, 0, 12, 2, 0x5eed0cULL},
                          {-9, 0, 14, 2, 0x5eed0eULL},
                          {-10, 0, 15, 2, 0x5eed0fULL},
                          {-11, 0, 16, 2, 0x5eed10ULL},
                          {-12, 1, 2, 1, 0x5eed02ULL},
                          {-13, 1, 3, 1, 0x5eed03ULL}};
    for (const Draw &d : split) {
        runFusionDrawOfField(d);
        if (::testing::Test::HasFatalFailure())
            return;
    }

    // Same draw sequence as the other differential tests; the matrix
    // per draw (2 directions x 3 thread counts) is the expensive part,
    // so the draw count is reduced while keeping the (field, logN,
    // gpus) marginals.
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

        runFusionDrawOfField(d);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * DAG-overlapped execution against the linear path: for one seeded
 * draw, every combination of direction and thread count must produce
 * output byte-identical to the linear (overlap-off) serial engine, and
 * the analytic reports must agree on fabric bytes and message counts —
 * only the makespan may shrink.
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

        for (unsigned threads : {1u, 4u, 16u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            UniNttConfig cfg = UniNttConfig::allOn();
            cfg.hostThreads = threads;
            UniNttEngine<F> dag(sys, cfg);
            auto data = DistributedVector<F>::fromGlobal(input, d.gpus);
            if (dir == NttDirection::Forward)
                dag.forward(data);
            else
                dag.inverse(data);
            ASSERT_EQ(data.toGlobal(), want);
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
    // thread counts) is the expensive part, so draws are subsampled
    // while keeping the (field, logN, gpus) marginals.
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
 * draw, every combination of direction, thread count and dispatch
 * mode with ABFT on must produce output byte-identical to
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
                for (unsigned threads : {1u, 4u}) {
                    SCOPED_TRACE("abft=" + std::to_string(abft) +
                                 " overlap=" + std::to_string(overlap) +
                                 " threads=" + std::to_string(threads));
                    UniNttConfig cfg = UniNttConfig::allOn();
                    cfg.overlapComm = overlap;
                    cfg.hostThreads = threads;
                    UniNttEngine<F> engine(sys, cfg);
                    ResilienceConfig rc;
                    rc.abft = abft;
                    FaultInjector inj(FaultModel::none());
                    auto data =
                        DistributedVector<F>::fromGlobal(input, d.gpus);
                    Result<SimReport> r =
                        dir == NttDirection::Forward
                            ? engine.forwardResilient(data, inj, rc)
                            : engine.inverseResilient(data, inj, rc);
                    ASSERT_TRUE(r.ok()) << r.status().toString();
                    ASSERT_EQ(data.toGlobal(), want);
                    const FaultStats &fs = r.value().faultStats();
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

TEST(Differential, AbftOnMatchesCleanRunsAcrossTilesAndThreads)
{
    // Same draw sequence as the other differential tests; the matrix
    // per draw (2 directions x 2 abft x 2 dispatch x 2 thread counts)
    // is the expensive part, so draws are subsampled on a residue
    // disjoint from the fusion/overlap matrices.
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
 * matrix above cannot isolate: a masked-tail or stride bug
 * shows up here with a one-line repro.
 */
/** x ^ (x >> s), undone: each step recovers s more high bits. */
uint64_t
unxorShift(uint64_t y, int s)
{
    uint64_t x = y;
    for (int k = 0; k < 64; k += s)
        x = y ^ (x >> s);
    return x;
}

/** The inverse of an odd multiplier mod 2^64 (Newton's iteration). */
constexpr uint64_t
oddInverse(uint64_t c)
{
    uint64_t x = c;
    for (int i = 0; i < 6; ++i)
        x *= 2 - c * x;
    return x;
}

/** The preimage of @p z under mix64 (util/checksum.hh). */
uint64_t
unmix64(uint64_t z)
{
    z = unxorShift(z, 31) * oddInverse(0x94d049bb133111ebULL);
    z = unxorShift(z, 27) * oddInverse(0xbf58476d1ce4e5b9ULL);
    return unxorShift(z, 30);
}

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

    // Radix-4/radix-8 blocks of 4h/8h elements in both directions: the
    // flat sweep's n == h and the column sweep's n < h (widths around
    // the lane count), with misaligned twiddle heads. The scalar table
    // is also held to the slot's definition over the same block, on
    // columns i < n: two (three) bflyFwd stages of halves 2h, h (4h,
    // 2h, h), or bflyInv stages of halves h, 2h (, 4h).
    for (size_t h : {size_t{1}, size_t{3}, size_t{8}, size_t{13},
                     2 * size_t{fk.lanes} + 3}) {
        std::vector<size_t> widths{h};
        for (size_t n : {size_t{1}, size_t{fk.lanes} - 1,
                         size_t{fk.lanes} + 1, h - 1})
            if (n > 0 && n < h &&
                std::find(widths.begin(), widths.end(), n) ==
                    widths.end())
                widths.push_back(n);
        // slab[k]: the twiddles of the stage of half h << k.
        const std::vector<F> slab[3] = {draw(h, 1), draw(2 * h, 1),
                                        draw(4 * h, 1)};
        for (bool inv : {false, true}) {
            for (size_t stages : {size_t{2}, size_t{3}}) {
                const size_t radix = size_t{1} << stages;
                // The slot's stage order: halves grow (DIT) or shrink.
                size_t ks[3];
                const F *tw[3];
                for (size_t j = 0; j < stages; ++j) {
                    ks[j] = inv ? j : stages - 1 - j;
                    tw[j] = slab[ks[j]].data() + 1;
                }
                for (size_t n : widths) {
                    SCOPED_TRACE("r" + std::to_string(radix) +
                                 (inv ? "Inv" : "Fwd") +
                                 " h=" + std::to_string(h) +
                                 " n=" + std::to_string(n));
                    const std::vector<F> block0 = draw(radix * h, 0);
                    auto run = [&](const FieldKernels<F> &k) {
                        std::vector<F> b = block0;
                        F *p = b.data();
                        if (radix == 4)
                            (inv ? k.r4Inv : k.r4Fwd)(
                                p, p + h, p + 2 * h, p + 3 * h, tw[0],
                                tw[1], h, n);
                        else
                            (inv ? k.r8Inv : k.r8Fwd)(
                                p, p + h, p + 2 * h, p + 3 * h,
                                p + 4 * h, p + 5 * h, p + 6 * h,
                                p + 7 * h, tw[0], tw[1], tw[2], h, n);
                        return b;
                    };
                    const std::vector<F> want = run(scalar);
                    ASSERT_EQ(run(fk), want);

                    std::vector<F> def = block0;
                    for (size_t j = 0; j < stages; ++j) {
                        const size_t half = h << ks[j];
                        for (size_t b = 0; b < radix * h; b += 2 * half)
                            (inv ? scalar.bflyInv : scalar.bflyFwd)(
                                def.data() + b, def.data() + b + half,
                                tw[j], 1, half);
                    }
                    for (size_t e = 0; e < radix * h; ++e)
                        ASSERT_EQ(want[e],
                                  e % h < n ? def[e] : block0[e])
                            << "element " << e;
                }
            }
        }
    }

    // Sub-lane slots over W-element blocks: part of one chunk of L
    // blocks, one chunk, several, and remainders past them, with
    // misaligned data and twiddle heads. Held to the scalar form of
    // the same width and to the slot's definition: per block, the
    // log2(W) bflyFwd (bflyInv) stages over the packed twiddles,
    // whose stage heads are one.
    const size_t W = fk.subLaneWidth();
    const size_t L = fk.lanes;
    ASSERT_TRUE(W == 8 || W == 16) << "W=" << W;
    std::vector<F> tw = draw(W - 1, 3);
    for (size_t h = W / 2; h >= 1; h /= 2)
        tw[3 + W - 2 * h] = F::one();
    const F *twh = tw.data() + 3;
    std::vector<size_t> block_counts{1, 3 * L, 3 * L + 1};
    if (L > 1) {
        block_counts.push_back(L);
        block_counts.push_back(3 * L - 1);
    }
    for (bool inv : {false, true}) {
        for (size_t blocks : block_counts) {
            SCOPED_TRACE(std::string(inv ? "subLaneInv" : "subLaneFwd") +
                         " W=" + std::to_string(W) +
                         " blocks=" + std::to_string(blocks));
            const std::vector<F> data0 = draw(blocks * W, 1);
            auto slot = inv ? fk.subLaneInv : fk.subLaneFwd;
            auto same_width =
                W == 8 ? (inv ? &spankernels::subLaneInvScalar<F, 8>
                              : &spankernels::subLaneFwdScalar<F, 8>)
                       : (inv ? &spankernels::subLaneInvScalar<F, 16>
                              : &spankernels::subLaneFwdScalar<F, 16>);
            auto got = data0, want = data0;
            slot(got.data() + 1, twh, blocks);
            same_width(want.data() + 1, twh, blocks);
            ASSERT_EQ(got, want);

            std::vector<F> def = data0;
            for (size_t b = 0; b < blocks; ++b) {
                F *p = def.data() + 1 + b * W;
                for (int k = 0; k < std::countr_zero(W); ++k) {
                    const size_t h = inv ? size_t{1} << k : W / 2 >> k;
                    for (size_t g = 0; g < W; g += 2 * h) {
                        if (inv)
                            scalar.bflyInv(p + g, p + g + h,
                                           twh + W - 2 * h, 1, h);
                        else
                            scalar.bflyFwd(p + g, p + g + h,
                                           twh + W - 2 * h, 1, h);
                    }
                }
            }
            ASSERT_EQ(got, def);
        }
    }

    // The word slots over lengths around both word-lane counts (4, 8)
    // and odd tails, from non-zero start indices and words, at
    // misaligned addresses. Each is also held to its definition.
    const std::vector<size_t> word_lens{0, 1, 2, 3, 4, 5, 7, 8,
                                        9, 15, 16, 17, 33, 100};
    for (size_t len : word_lens) {
        for (uint64_t i0 : {uint64_t{0}, uint64_t{123456789}}) {
            // For Goldilocks, seeds that put mix64 at or above p in the
            // first, middle and last position.
            std::vector<uint64_t> seeds{0x5eed, rng.next()};
            if (std::is_same_v<F, Goldilocks> && len > 0)
                for (size_t j : {size_t{0}, len / 2, len - 1}) {
                    seeds.push_back(
                        unmix64(Goldilocks::kModulus + j * 0x1234567) ^
                        (i0 + j));
                    ASSERT_GE(mix64(seeds.back() ^ (i0 + j)),
                              Goldilocks::kModulus);
                }
            for (uint64_t seed : seeds) {
                SCOPED_TRACE("seededFill len=" + std::to_string(len) +
                             " i0=" + std::to_string(i0) +
                             " seed=" + std::to_string(seed));
                std::vector<F> got(len + 1), want(len + 1), def(len + 1);
                fk.seededFill(got.data() + 1, len, seed, i0);
                scalar.seededFill(want.data() + 1, len, seed, i0);
                for (size_t i = 0; i < len; ++i)
                    def[i + 1] = F::fromU64(mix64(seed ^ (i0 + i)));
                ASSERT_EQ(got, want);
                ASSERT_EQ(got, def);
            }
        }
        std::vector<unsigned char> bytes(8 * len + 3);
        for (auto &b : bytes)
            b = static_cast<unsigned char>(rng.next());
        for (size_t off : {size_t{0}, size_t{3}})
            for (uint64_t first : {uint64_t{1}, uint64_t{987654321}}) {
                SCOPED_TRACE("wordHash len=" + std::to_string(len) +
                             " off=" + std::to_string(off) +
                             " first=" + std::to_string(first));
                const unsigned char *p = bytes.data() + off;
                const uint64_t got = fk.wordHash(p, len, first);
                ASSERT_EQ(got, scalar.wordHash(p, len, first));
                ASSERT_EQ(got, checksumWords(p, 8 * len, first));
            }
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
