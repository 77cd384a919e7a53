/**
 * @file
 * Fault injection and resilient execution tests: the injector is
 * deterministic, and the resilient engine paths survive transient
 * faults, corruption and device loss while still producing bit-exact
 * transforms.
 */

#include <gtest/gtest.h>

#include "field/babybear.hh"
#include "field/bn254.hh"
#include "field/goldilocks.hh"
#include "ntt/radix2.hh"
#include "sim/fault.hh"
#include "sim/multi_gpu.hh"
#include "unintt/abft.hh"
#include "unintt/engine.hh"

namespace unintt {
namespace {

using F = Goldilocks;

std::vector<F>
testVector(size_t n)
{
    std::vector<F> x(n);
    for (size_t i = 0; i < n; ++i)
        x[i] = F::fromU64(i * 2654435761u + 17);
    return x;
}

uint64_t
totalCommRetries(const SimReport &report)
{
    return report.totalCommStats().retries;
}

// ---------------------------------------------------------------------
// FaultInjector.
// ---------------------------------------------------------------------

TEST(FaultInjector, CleanModelInjectsNothing)
{
    FaultInjector inj(FaultModel::none());
    for (int i = 0; i < 100; ++i) {
        ExchangeOutcome out = inj.nextExchange(4);
        EXPECT_EQ(out.transientFailures, 0u);
        EXPECT_FALSE(out.exhausted);
        EXPECT_FALSE(out.corrupted);
        EXPECT_DOUBLE_EQ(out.stragglerFactor, 1.0);
        EXPECT_EQ(out.lostGpu, -1);
    }
    EXPECT_EQ(inj.injected().transients, 0u);
    EXPECT_EQ(inj.injected().corruptions(), 0u);
    EXPECT_EQ(inj.exchangesSeen(), 100u);
}

TEST(FaultInjector, SameSeedSameEventSequence)
{
    FaultModel m;
    m.seed = 42;
    m.transientExchangeRate = 0.3;
    m.bitFlipRate = 0.2;
    m.stragglerRate = 0.2;

    FaultInjector a(m), b(m);
    for (int i = 0; i < 500; ++i) {
        ExchangeOutcome oa = a.nextExchange(4);
        ExchangeOutcome ob = b.nextExchange(4);
        EXPECT_EQ(oa.transientFailures, ob.transientFailures);
        EXPECT_EQ(oa.corrupted, ob.corrupted);
        EXPECT_EQ(oa.corruptBit, ob.corruptBit);
        EXPECT_DOUBLE_EQ(oa.stragglerFactor, ob.stragglerFactor);
    }
    EXPECT_EQ(a.injected().transients, b.injected().transients);
    EXPECT_GT(a.injected().transients, 0u);
    EXPECT_GT(a.injected().corruptions(), 0u);
    // The lump sum is exactly the sum of the per-category splits.
    EXPECT_EQ(a.injected().corruptions(),
              a.injected().exchangeCorruptions +
                  a.injected().retransmitCorruptions +
                  a.injected().computeCorruptions);
    EXPECT_GT(a.injected().stragglers, 0u);
}

TEST(FaultInjector, ResetReproducesTheCampaign)
{
    FaultModel m;
    m.transientExchangeRate = 0.4;
    m.bitFlipRate = 0.3;
    FaultInjector inj(m);

    std::vector<ExchangeOutcome> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(inj.nextExchange(4));
    inj.reset();
    EXPECT_EQ(inj.exchangesSeen(), 0u);
    for (int i = 0; i < 50; ++i) {
        ExchangeOutcome out = inj.nextExchange(4);
        EXPECT_EQ(out.transientFailures, first[i].transientFailures);
        EXPECT_EQ(out.corrupted, first[i].corrupted);
        EXPECT_EQ(out.corruptBit, first[i].corruptBit);
    }
}

TEST(FaultInjector, DropoutFiresExactlyOnceAtItsIndex)
{
    FaultModel m;
    m.dropouts.push_back({3, 7});
    FaultInjector inj(m);
    for (int i = 0; i < 20; ++i) {
        ExchangeOutcome out = inj.nextExchange(4);
        if (i == 7)
            EXPECT_EQ(out.lostGpu, 3);
        else
            EXPECT_EQ(out.lostGpu, -1);
    }
    EXPECT_EQ(inj.injected().dropouts, 1u);
}

TEST(FaultInjector, CertainFailureExhaustsTheRetryBudget)
{
    FaultModel m;
    m.transientExchangeRate = 1.0;
    FaultInjector inj(m);
    ExchangeOutcome out = inj.nextExchange(4);
    EXPECT_TRUE(out.exhausted);
    // The initial transmission plus all four retransmissions failed.
    EXPECT_EQ(out.transientFailures, 5u);
}

TEST(FaultInjector, ZeroRetriesStillAttemptsOnce)
{
    FaultModel clean;
    FaultInjector inj(clean);
    ExchangeOutcome out = inj.nextExchange(0);
    EXPECT_FALSE(out.exhausted);
    EXPECT_EQ(out.transientFailures, 0u);
}

TEST(RetryPolicy, BackoffDoubles)
{
    RetryPolicy r;
    r.backoffBaseSeconds = 1e-4;
    EXPECT_DOUBLE_EQ(r.backoffSeconds(0), 1e-4);
    EXPECT_DOUBLE_EQ(r.backoffSeconds(1), 2e-4);
    EXPECT_DOUBLE_EQ(r.backoffSeconds(3), 8e-4);
}

TEST(RetryPolicy, BackoffIsCappedHoweverManyAttemptsFailed)
{
    RetryPolicy r;
    r.backoffBaseSeconds = 1e-4;
    r.backoffMaxSeconds = 5e-4;
    // 2^3 * base = 8e-4 would exceed the cap.
    EXPECT_DOUBLE_EQ(r.backoffSeconds(3), 5e-4);
    EXPECT_DOUBLE_EQ(r.backoffSeconds(17), 5e-4);
    // Attempt counts far past the exponent range must not overflow
    // into a tiny (or negative) delay.
    EXPECT_DOUBLE_EQ(r.backoffSeconds(1u << 30), 5e-4);
}

TEST(RetryPolicy, JitterStaysInsideTheConfiguredSpread)
{
    RetryPolicy r;
    r.backoffBaseSeconds = 1e-4;
    r.backoffMaxSeconds = 5e-4;
    r.jitterFraction = 0.5;
    for (unsigned attempt = 0; attempt < 6; ++attempt) {
        const double capped = r.backoffSeconds(attempt);
        for (uint64_t salt = 1; salt <= 64; ++salt) {
            const double jittered = r.backoffSeconds(attempt, salt);
            EXPECT_GE(jittered, capped * 0.75);
            EXPECT_LE(jittered, capped * 1.25);
        }
    }
}

TEST(RetryPolicy, JitterIsDeterministicPerSaltAndDecorrelated)
{
    RetryPolicy r;
    r.backoffBaseSeconds = 1e-4;
    r.jitterFraction = 0.5;
    EXPECT_DOUBLE_EQ(r.backoffSeconds(2, 0xabcdef),
                     r.backoffSeconds(2, 0xabcdef));
    // Different salts (different jobs) must not share a delay —
    // that is the point of jitter: concurrent retries decorrelate.
    bool differs = false;
    for (uint64_t salt = 1; salt < 16 && !differs; ++salt)
        differs = r.backoffSeconds(2, salt) != r.backoffSeconds(2, 0);
    EXPECT_TRUE(differs);
}

TEST(RetryPolicy, ZeroJitterMatchesTheDeterministicForm)
{
    RetryPolicy r;
    r.backoffBaseSeconds = 1e-4;
    for (unsigned attempt = 0; attempt < 5; ++attempt)
        EXPECT_DOUBLE_EQ(r.backoffSeconds(attempt, 1234),
                         r.backoffSeconds(attempt));
}

// ---------------------------------------------------------------------
// Compute-fault draws (the ABFT injection side).
// ---------------------------------------------------------------------

TEST(ComputeFaults, DrawsAreStatelessHashesOfTheirCoordinates)
{
    // The seed-derivation contract (sim/fault.hh): compute draws are
    // pure functions of (model.seed, device, step, attempt), so
    // interleaving any number of exchange draws — which advance the
    // sequential stream — must not perturb them. This is what makes a
    // replay reproduce the same flip at the same step even when the
    // recovery path changes how many exchanges run in between.
    FaultModel m;
    m.seed = 314;
    m.computeBitFlipRate = 0.25;
    m.transientExchangeRate = 0.5;
    m.bitFlipRate = 0.5;

    FaultInjector quiet(m), noisy(m);
    bool fired = false;
    for (unsigned device = 0; device < 4; ++device) {
        for (uint64_t step = 0; step < 32; ++step) {
            for (unsigned attempt = 0; attempt < 3; ++attempt) {
                // Perturb the sequential stream of one injector only.
                noisy.nextExchange(4);
                ComputeFaultOutcome a =
                    quiet.computeFault(device, step, attempt);
                ComputeFaultOutcome b =
                    noisy.computeFault(device, step, attempt);
                EXPECT_EQ(a.corrupted, b.corrupted);
                EXPECT_EQ(a.corruptWord, b.corruptWord);
                EXPECT_EQ(a.corruptBit, b.corruptBit);
                fired = fired || a.corrupted;
            }
        }
    }
    EXPECT_TRUE(fired);
    EXPECT_GT(quiet.injected().computeCorruptions, 0u);
    EXPECT_EQ(quiet.injected().computeCorruptions,
              noisy.injected().computeCorruptions);
}

TEST(ComputeFaults, ReplayReproducesTheDrawSequence)
{
    FaultModel m;
    m.seed = 2718;
    m.computeBitFlipRate = 0.1;
    FaultInjector a(m), b(m);
    for (uint64_t step = 0; step < 200; ++step) {
        ComputeFaultOutcome oa = a.computeFault(step % 8, step, 0);
        ComputeFaultOutcome ob = b.computeFault(step % 8, step, 0);
        EXPECT_EQ(oa.corrupted, ob.corrupted);
        EXPECT_EQ(oa.corruptWord, ob.corruptWord);
        EXPECT_EQ(oa.corruptBit, ob.corruptBit);
    }
    EXPECT_GT(a.injected().computeCorruptions, 0u);
}

TEST(ComputeFaults, CleanModelNeverFires)
{
    FaultInjector inj(FaultModel::none());
    for (uint64_t step = 0; step < 100; ++step)
        EXPECT_FALSE(inj.computeFault(0, step, 0).corrupted);
    EXPECT_EQ(inj.injected().computeCorruptions, 0u);
}

// ---------------------------------------------------------------------
// ABFT checksums: a flipped word can never cancel out of the dot.
// ---------------------------------------------------------------------

/**
 * Flip one bit of one stored word the way the executor's injector
 * does (a raw byte XOR) and require the random-linear-combination dot
 * product to change. Sound because the coefficients are nudged away
 * from zero and a single-bit XOR changes the raw word by ±2^k, which
 * is never ≡ 0 mod an odd prime — so the dot moves by coef * delta,
 * a product of nonzero field elements.
 */
template <typename Fld>
void
expectBitFlipChangesDot()
{
    const uint64_t n = 64;
    std::vector<Fld> coef(n), x(n);
    for (uint64_t i = 0; i < n; ++i) {
        Fld e = fieldFromEntropy<Fld>(mix64(0x5eed ^ mix64(i + 1)));
        coef[i] = e.isZero() ? Fld::fromU64(1) : e;
        x[i] = fieldFromEntropy<Fld>(mix64(0xdada ^ mix64(i + 1)));
    }
    const Fld base = abftSpanDot(coef.data(), x.data(), n);
    for (uint64_t w = 0; w < n; w += 7) {
        for (unsigned bit = 0; bit < 8 * sizeof(Fld); bit += 5) {
            Fld saved = x[w];
            auto *raw = reinterpret_cast<unsigned char *>(&x[w]);
            raw[bit / 8] ^= static_cast<unsigned char>(
                1u << (bit % 8));
            EXPECT_FALSE(x[w] == saved)
                << "word " << w << " bit " << bit;
            const Fld dot = abftSpanDot(coef.data(), x.data(), n);
            EXPECT_FALSE(dot == base)
                << "word " << w << " bit " << bit;
            x[w] = saved;
        }
    }
}

TEST(AbftChecksum, BitFlipChangesDotGoldilocks)
{
    // Covers the branch-free reduction paths: the flipped raw word
    // may be a non-canonical residue, but its value mod p still moves.
    expectBitFlipChangesDot<Goldilocks>();
}

TEST(AbftChecksum, BitFlipChangesDotBabyBear)
{
    expectBitFlipChangesDot<BabyBear>();
}

TEST(AbftChecksum, BitFlipChangesDotBn254)
{
    expectBitFlipChangesDot<Bn254Fr>();
}

// ---------------------------------------------------------------------
// Resilient engine: clean runs.
// ---------------------------------------------------------------------

/**
 * Hash of every boundary vector of the ABFT coefficients of one
 * resilient schedule shape.
 */
template <NttField Fld>
uint64_t
abftBoundaryHash(unsigned logN, unsigned gpus, NttDirection dir,
                 bool fuse, uint64_t seed, unsigned lanes)
{
    const MultiGpuSystem sys = makeDgxA100(gpus);
    ScheduleOptions opts;
    opts.resilient = true;
    opts.abft = true;
    UniNttConfig cfg = UniNttConfig::allOn();
    cfg.fuseLocalPasses = fuse;
    const StageSchedule sched = compileSchedule(
        planNttWithTile(logN, sys, sizeof(Fld), 0), sys, dir,
        sizeof(Fld), cfg, CostConstants{}, opts);
    const auto slabs = cachedTwiddleSlabs<Fld>(size_t{1} << logN, dir);
    const AbftCoefficients<Fld> coef(sched, *slabs, seed, lanes);
    uint64_t h = coef.checkedSteps();
    for (size_t b = 0; b <= coef.checkedSteps(); ++b)
        h = mix64(h ^ checksumShards(coef.boundary(b).chunks()));
    return h;
}

TEST(AbftCoefficients, BoundaryVectorsArePinned)
{
    // Two shapes in both directions: fused groups and cross stages on
    // Goldilocks; per-stage local passes on BabyBear. The inverse's
    // first step carries n^-1 in both. The values were taken from the
    // scalar one-stage-at-a-time transposes that the compute functions
    // replace. The inverse rows changed when n^-1 moved from a checked
    // step of its own into the first step: every later boundary is the
    // old one divided by n^-1, and multiplying back (plus the seeded
    // last vector the removed step added) reproduces the old hashes.
    const NttDirection fwd = NttDirection::Forward;
    const NttDirection inv = NttDirection::Inverse;
    for (unsigned lanes : {1u, 2u}) {
        EXPECT_EQ(abftBoundaryHash<Goldilocks>(12, 4, fwd, true, 0xabf7,
                                               lanes),
                  0x5def2aaae87fa80fULL);
        EXPECT_EQ(abftBoundaryHash<Goldilocks>(12, 4, inv, true, 0xabf7,
                                               lanes),
                  0x91fb780083a5ba63ULL);
        EXPECT_EQ(abftBoundaryHash<BabyBear>(16, 8, fwd, false, 0xabf8,
                                             lanes),
                  0xc39673021b558f07ULL);
        EXPECT_EQ(abftBoundaryHash<BabyBear>(16, 8, inv, false, 0xabf8,
                                             lanes),
                  0x717713f914a578d7ULL);
    }
}

TEST(ResilientEngine, CleanRunMatchesPlainTransform)
{
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);

    auto plain = DistributedVector<F>::fromGlobal(x, 8);
    engine.forward(plain);

    auto res = DistributedVector<F>::fromGlobal(x, 8);
    FaultInjector inj(FaultModel::none());
    Result<SimReport> r = engine.forwardResilient(res, inj);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(res.toGlobal(), plain.toGlobal());

    const FaultStats &fs = r.value().faultStats();
    EXPECT_EQ(fs.transientRetries, 0u);
    EXPECT_EQ(fs.corruptionsDetected, 0u);
    EXPECT_EQ(fs.devicesLost, 0u);
    EXPECT_EQ(fs.spotCheckFailures, 0u);
    EXPECT_EQ(fs.exchanges, 3u); // logMg = 3 cross stages
    EXPECT_EQ(totalCommRetries(r.value()), 0u);
}

TEST(ResilientEngine, CleanRoundTripRestoresInput)
{
    auto sys = makeDgxA100(4);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 10);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    FaultInjector inj(FaultModel::none());
    ASSERT_TRUE(engine.forwardResilient(dist, inj).ok());
    ASSERT_TRUE(engine.inverseResilient(dist, inj).ok());
    EXPECT_EQ(dist.toGlobal(), x);
}

TEST(ResilientEngine, GpuCountMismatchIsInvalidArgument)
{
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 10);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    FaultInjector inj(FaultModel::none());
    Result<SimReport> r = engine.forwardResilient(dist, inj);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
}

// ---------------------------------------------------------------------
// Resilient engine: fault campaigns.
// ---------------------------------------------------------------------

TEST(ResilientEngine, TransientAndCorruptionCampaignIsBitExact)
{
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);
    std::vector<F> expect = x;
    nttNoPermute(expect, NttDirection::Forward);

    // A forward transform on 8 GPUs only rolls the dice on 3 cross
    // exchanges, so sweep seeds (deterministically) until both fault
    // kinds have been seen at least once. Every successful run must be
    // bit-exact regardless of what was injected.
    FaultModel m;
    m.transientExchangeRate = 0.5;
    m.bitFlipRate = 0.5;
    m.stragglerRate = 0.5;

    auto clean = DistributedVector<F>::fromGlobal(x, 8);
    FaultInjector none(FaultModel::none());
    Result<SimReport> c = engine.forwardResilient(clean, none);
    ASSERT_TRUE(c.ok());

    uint64_t retries = 0, corruptions = 0;
    for (uint64_t seed = 0; seed < 32; ++seed) {
        m.seed = seed;
        FaultInjector inj(m);
        auto dist = DistributedVector<F>::fromGlobal(x, 8);
        Result<SimReport> r = engine.forwardResilient(dist, inj);
        if (!r.ok())
            continue; // this seed exhausted a retry budget — fine
        EXPECT_EQ(dist.toGlobal(), expect) << "seed " << seed;
        const FaultStats &fs = r.value().faultStats();
        retries += fs.transientRetries;
        corruptions += fs.corruptionsDetected;
        EXPECT_EQ(totalCommRetries(r.value()),
                  fs.transientRetries + fs.corruptionsDetected);
        if (fs.any()) {
            // Handled faults cost simulated time.
            EXPECT_GE(r.value().totalSeconds(),
                      c.value().totalSeconds());
        }
    }
    EXPECT_GT(retries, 0u);
    EXPECT_GT(corruptions, 0u);
}

TEST(ResilientEngine, FaultyRoundTripRestoresInput)
{
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);

    FaultModel m;
    m.seed = 21;
    m.transientExchangeRate = 0.4;
    m.bitFlipRate = 0.4;
    FaultInjector inj(m);

    auto dist = DistributedVector<F>::fromGlobal(x, 8);
    ASSERT_TRUE(engine.forwardResilient(dist, inj).ok());
    ASSERT_TRUE(engine.inverseResilient(dist, inj).ok());
    EXPECT_EQ(dist.toGlobal(), x);
}

TEST(ResilientEngine, SameSeedReproducesTimesAndCounters)
{
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);

    FaultModel m;
    m.seed = 1234;
    m.transientExchangeRate = 0.5;
    m.bitFlipRate = 0.5;
    m.stragglerRate = 0.5;

    auto campaign = [&] {
        auto dist = DistributedVector<F>::fromGlobal(x, 8);
        FaultInjector inj(m);
        Result<SimReport> r = engine.forwardResilient(dist, inj);
        EXPECT_TRUE(r.ok());
        return r;
    };
    Result<SimReport> a = campaign();
    Result<SimReport> b = campaign();
    EXPECT_DOUBLE_EQ(a.value().totalSeconds(), b.value().totalSeconds());
    const FaultStats &fa = a.value().faultStats();
    const FaultStats &fb = b.value().faultStats();
    EXPECT_EQ(fa.transientRetries, fb.transientRetries);
    EXPECT_EQ(fa.corruptionsDetected, fb.corruptionsDetected);
    EXPECT_EQ(fa.stragglerEvents, fb.stragglerEvents);
    EXPECT_EQ(fa.checksummedBytes, fb.checksummedBytes);
}

TEST(ResilientEngine, BuffersLentAcrossRunsChangeNothing)
{
    // The engine lends one set of host buffers (ResilientScratch) to
    // run after run. Runs that grow, shrink and lose a device on a
    // reused engine must match a fresh engine's run: output bytes,
    // fault counters and simulated time.
    auto sys = makeDgxA100(8);
    UniNttEngine<F> reused(sys);
    struct Run
    {
        Result<SimReport> r;
        std::vector<F> out;
    };
    for (unsigned logN : {12u, 14u, 10u, 14u}) {
        for (bool dropout : {false, true}) {
            SCOPED_TRACE("logN " + std::to_string(logN) + " dropout " +
                         std::to_string(dropout));
            FaultModel m;
            m.seed = mix64(logN);
            m.transientExchangeRate = 0.3;
            m.bitFlipRate = 0.3;
            m.computeBitFlipRate = 0.05;
            if (dropout)
                m.dropouts.push_back({5, 1});
            const std::vector<F> x = testVector(size_t{1} << logN);
            auto run = [&](const UniNttEngine<F> &e) {
                auto dist = DistributedVector<F>::fromGlobal(x, 8);
                FaultInjector inj(m);
                Result<SimReport> r = e.forwardResilient(dist, inj);
                return Run{std::move(r), dist.toGlobal()};
            };
            const Run a = run(reused);
            const Run b = run(UniNttEngine<F>(sys));
            ASSERT_EQ(a.r.ok(), b.r.ok());
            if (!a.r.ok()) {
                EXPECT_EQ(a.r.status().code(), b.r.status().code());
                continue;
            }
            std::vector<F> expect = x;
            nttNoPermute(expect, NttDirection::Forward);
            EXPECT_EQ(a.out, expect);
            EXPECT_EQ(b.out, expect);
            EXPECT_DOUBLE_EQ(a.r.value().totalSeconds(),
                             b.r.value().totalSeconds());
            const FaultStats &fa = a.r.value().faultStats();
            const FaultStats &fb = b.r.value().faultStats();
            EXPECT_EQ(fa.transientRetries, fb.transientRetries);
            EXPECT_EQ(fa.corruptionsDetected, fb.corruptionsDetected);
            EXPECT_EQ(fa.abftCatches, fb.abftCatches);
            EXPECT_EQ(fa.tilesRecomputed, fb.tilesRecomputed);
            EXPECT_EQ(fa.devicesLost, dropout ? 1u : 0u);
            EXPECT_EQ(fa.devicesLost, fb.devicesLost);
        }
    }
}

TEST(ResilientEngine, RetryExhaustionIsTransientFaultStatus)
{
    auto sys = makeDgxA100(4);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 10);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);

    FaultModel m;
    m.transientExchangeRate = 1.0;
    FaultInjector inj(m);
    Result<SimReport> r = engine.forwardResilient(dist, inj);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::TransientFault);
    EXPECT_NE(r.status().message().find("still failing"),
              std::string::npos);
}

TEST(ResilientEngine, PersistentCorruptionIsDataCorruptionStatus)
{
    auto sys = makeDgxA100(4);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 10);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);

    FaultModel m;
    m.bitFlipRate = 1.0; // every retransmission corrupts again
    FaultInjector inj(m);
    Result<SimReport> r = engine.forwardResilient(dist, inj);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataCorruption);
    EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
}

// ---------------------------------------------------------------------
// Resilient engine: ABFT compute-fault campaigns.
// ---------------------------------------------------------------------

TEST(AbftRecovery, ComputeFlipCampaignIsCorrectOrCleanAcrossKinds)
{
    // The recovery matrix: compute bit flips land on every step kind
    // (cross stages, local passes, fused groups, the inverse scale)
    // across directions, dispatch modes and GPU counts. Every run
    // must either produce the bit-exact reference or fail with a
    // clean Status, the injected-vs-caught ledger must balance on
    // every completed run, and across the sweep the ABFT layer must
    // actually catch flips and recompute tiles.
    std::vector<F> x = testVector(1 << 12);
    std::vector<F> fwd = x;
    nttNoPermute(fwd, NttDirection::Forward);

    uint64_t caught = 0, tiles = 0, escalated = 0, completed = 0;
    for (unsigned gpus : {1u, 4u, 8u}) {
        auto sys = makeDgxA100(gpus);
        for (bool overlap : {true, false}) {
            UniNttConfig cfg = UniNttConfig::allOn();
            cfg.overlapComm = overlap;
            UniNttEngine<F> engine(sys, cfg);
            for (bool inverse : {false, true}) {
                for (uint64_t seed = 0; seed < 6; ++seed) {
                    SCOPED_TRACE("gpus " + std::to_string(gpus) +
                                 " overlap " + std::to_string(overlap) +
                                 " inverse " + std::to_string(inverse) +
                                 " seed " + std::to_string(seed));
                    FaultModel m;
                    m.seed = mix64(seed + 1);
                    m.computeBitFlipRate = 0.05;
                    FaultInjector inj(m);
                    auto dist = DistributedVector<F>::fromGlobal(
                        inverse ? fwd : x, gpus);
                    Result<SimReport> r =
                        inverse ? engine.inverseResilient(dist, inj)
                                : engine.forwardResilient(dist, inj);
                    if (!r.ok()) {
                        EXPECT_EQ(r.status().code(),
                                  StatusCode::DataCorruption);
                        continue;
                    }
                    completed++;
                    EXPECT_EQ(dist.toGlobal(), inverse ? x : fwd);
                    const FaultStats &fs = r.value().faultStats();
                    EXPECT_GT(fs.abftChecks, 0u);
                    // Ledger: every injected flip of a completed run
                    // was caught or escalated.
                    EXPECT_EQ(inj.injected().computeCorruptions,
                              fs.abftCatches + fs.abftEscalations);
                    caught += fs.abftCatches;
                    tiles += fs.tilesRecomputed;
                    escalated += fs.abftEscalations;
                }
            }
        }
    }
    EXPECT_GT(completed, 0u);
    EXPECT_GT(caught, 0u);
    EXPECT_GT(tiles, 0u);
    (void)escalated; // may be zero at this rate — covered below
}

/**
 * Compute-flip campaigns on per-stage schedules (fuseLocalPasses off):
 * the local phase runs as LocalPass steps, and a flip caught in one is
 * recomputed tile by tile through the fused sweeps' stage walk.
 */
template <NttField G>
void
perStageAbftCampaigns()
{
    std::vector<G> x(1 << 12);
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = G::fromU64(i * 2654435761u + 17);
    for (unsigned gpus : {1u, 2u, 4u}) {
        UniNttConfig cfg = UniNttConfig::allOn();
        cfg.fuseLocalPasses = false;
        UniNttEngine<G> engine(makeDgxA100(gpus), cfg);
        for (bool inverse : {false, true}) {
            SCOPED_TRACE(std::string(G::kName) + " gpus " +
                         std::to_string(gpus) + " inverse " +
                         std::to_string(inverse));
            auto plain = DistributedVector<G>::fromGlobal(x, gpus);
            if (inverse)
                engine.inverse(plain);
            else
                engine.forward(plain);
            const std::vector<G> want = plain.toGlobal();
            // Completed runs that recomputed tiles and escalated
            // nothing: the recomputed tiles passed their re-check.
            uint64_t recovered = 0;
            for (uint64_t seed = 0; seed < 20; ++seed) {
                FaultModel m;
                m.seed = mix64(seed + 303);
                m.computeBitFlipRate = 0.1;
                FaultInjector inj(m);
                auto dist = DistributedVector<G>::fromGlobal(x, gpus);
                Result<SimReport> r =
                    inverse ? engine.inverseResilient(dist, inj)
                            : engine.forwardResilient(dist, inj);
                if (!r.ok()) {
                    EXPECT_EQ(r.status().code(),
                              StatusCode::DataCorruption);
                    continue;
                }
                EXPECT_EQ(dist.toGlobal(), want) << "seed " << seed;
                const FaultStats &fs = r.value().faultStats();
                EXPECT_EQ(inj.injected().computeCorruptions,
                          fs.abftCatches + fs.abftEscalations)
                    << "seed " << seed;
                if (fs.tilesRecomputed > 0 && fs.abftEscalations == 0)
                    recovered++;
            }
            EXPECT_GT(recovered, 0u);
        }
    }
}

TEST(AbftRecovery, PerStageSchedulesRecomputeTilesExactly)
{
    perStageAbftCampaigns<Goldilocks>();
    perStageAbftCampaigns<BabyBear>();
}

TEST(AbftRecovery, FlipInTheScaledFirstStepRecoversExactly)
{
    // The inverse's first step multiplies by n^-1 inside its tiles, and
    // so does its tile recovery. Seeds are chosen so that the first
    // compute draw, (device 0, step 0, attempt 0), corrupts that step's
    // output; draws are stateless, so a scratch injector finds them.
    std::vector<F> x = testVector(1 << 12);
    for (unsigned gpus : {1u, 4u}) {
        for (bool fuse : {true, false}) {
            SCOPED_TRACE("gpus " + std::to_string(gpus) + " fused " +
                         std::to_string(fuse));
            UniNttConfig cfg = UniNttConfig::allOn();
            cfg.fuseLocalPasses = fuse;
            UniNttEngine<F> engine(makeDgxA100(gpus), cfg);
            auto plain = DistributedVector<F>::fromGlobal(x, gpus);
            engine.inverse(plain);
            const std::vector<F> want = plain.toGlobal();
            ASSERT_TRUE(engine.schedule(12, NttDirection::Inverse)
                            ->steps.front()
                            .applyInverseScale);

            unsigned campaigns = 0;
            for (uint64_t k = 0; campaigns < 4 && k < 1000; ++k) {
                FaultModel m;
                m.seed = mix64(k + 909);
                m.computeBitFlipRate = 0.02;
                FaultInjector scratch(m);
                if (!scratch.computeFault(0, 0, 0).corrupted)
                    continue;
                ++campaigns;
                SCOPED_TRACE("k " + std::to_string(k));
                FaultInjector inj(m);
                auto dist = DistributedVector<F>::fromGlobal(x, gpus);
                Result<SimReport> r = engine.inverseResilient(dist, inj);
                ASSERT_TRUE(r.ok()) << r.status().toString();
                EXPECT_EQ(dist.toGlobal(), want);
                const FaultStats &fs = r.value().faultStats();
                EXPECT_GE(fs.abftCatches, 1u);
                EXPECT_GE(fs.tilesRecomputed, 1u);
                EXPECT_EQ(inj.injected().computeCorruptions,
                          fs.abftCatches + fs.abftEscalations);
            }
            EXPECT_EQ(campaigns, 4u);
        }
    }
}

TEST(AbftRecovery, ExhaustedTileRetriesEscalateToDegradeOrCleanError)
{
    // With a zero tile-retry budget every detected flip escalates
    // immediately: on a multi-GPU forward run that is the
    // degrade-reschedule path (and the run still completes exactly);
    // the device the flip landed on is marked suspect in the health
    // tracker either way.
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);
    std::vector<F> expect = x;
    nttNoPermute(expect, NttDirection::Forward);

    ResilienceConfig rc;
    rc.abftMaxTileRetries = 0;
    bool escalated_ok = false, escalated_err = false;
    // A forward schedule here has only 4 checked steps (3 cross + 1
    // fused local group), so the per-run fire probability needs a
    // hotter rate than the recovery matrix to make escalations
    // certain across the sweep.
    for (uint64_t seed = 0; seed < 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        FaultModel m;
        m.seed = mix64(seed + 77);
        m.computeBitFlipRate = 0.15;
        FaultInjector inj(m);
        DeviceHealthTracker health(8);
        auto dist = DistributedVector<F>::fromGlobal(x, 8);
        Result<SimReport> r =
            engine.forwardResilient(dist, inj, rc, &health);
        if (inj.injected().computeCorruptions == 0)
            continue;
        if (r.ok()) {
            EXPECT_EQ(dist.toGlobal(), expect);
            EXPECT_GT(r.value().faultStats().abftEscalations, 0u);
            EXPECT_GT(r.value().faultStats().degradedReplans, 0u);
            escalated_ok = true;
        } else {
            EXPECT_EQ(r.status().code(), StatusCode::DataCorruption);
            escalated_err = true;
        }
        uint64_t attributed = 0;
        for (unsigned d = 0; d < 8; ++d)
            attributed += health.faultEvents(d);
        EXPECT_GT(attributed, 0u);
    }
    EXPECT_TRUE(escalated_ok || escalated_err);
}

TEST(AbftRecovery, AbftOffLetsComputeFlipsCorruptSilently)
{
    // The negative control behind `unintt-cli soak --no-abft`: with
    // the checksums disabled an injected compute flip sails through
    // and the output is wrong. This is what proves the ABFT layer is
    // load-bearing rather than vacuously green.
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);
    std::vector<F> expect = x;
    nttNoPermute(expect, NttDirection::Forward);

    ResilienceConfig rc;
    rc.abft = false;
    // Also disable the spot checks: they sample output points, so an
    // early flip (which spreads to every output) would be caught and
    // turn the run into a clean failure instead of the silent
    // corruption this control is after.
    rc.spotChecks = 0;
    bool corrupted = false;
    for (uint64_t seed = 0; seed < 20 && !corrupted; ++seed) {
        FaultModel m;
        m.seed = mix64(seed + 5);
        m.computeBitFlipRate = 0.15;
        FaultInjector inj(m);
        auto dist = DistributedVector<F>::fromGlobal(x, 8);
        Result<SimReport> r = engine.forwardResilient(dist, inj, rc);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r.value().faultStats().abftChecks, 0u);
        if (inj.injected().computeCorruptions > 0)
            corrupted = dist.toGlobal() != expect;
    }
    EXPECT_TRUE(corrupted);
}

TEST(AbftRecovery, LinearAndDagDispatchAgreeOnAbftAccounting)
{
    // Compute-fault ordinals advance in step order in both dispatch
    // modes, so the same seed must catch the same flips at the same
    // boundaries whether or not the waves overlap.
    auto sys = makeDgxA100(8);
    std::vector<F> x = testVector(1 << 12);

    auto runWith = [&](bool overlap, const FaultModel &m,
                       const ResilienceConfig &rc, NttDirection dir) {
        UniNttConfig cfg = UniNttConfig::allOn();
        cfg.overlapComm = overlap;
        UniNttEngine<F> engine(sys, cfg);
        FaultInjector inj(m);
        auto dist = DistributedVector<F>::fromGlobal(x, 8);
        Result<SimReport> r =
            dir == NttDirection::Forward
                ? engine.forwardResilient(dist, inj, rc)
                : engine.inverseResilient(dist, inj, rc);
        EXPECT_TRUE(r.ok()) << r.status().toString();
        return std::make_tuple(r.ok() ? r.value().faultStats()
                                      : FaultStats{},
                               inj.injected().computeCorruptions,
                               dist.toGlobal());
    };

    FaultModel m;
    m.seed = 4242;
    m.computeBitFlipRate = 0.05;
    const ResilienceConfig on;
    auto dag = runWith(true, m, on, NttDirection::Forward);
    auto lin = runWith(false, m, on, NttDirection::Forward);
    EXPECT_EQ(std::get<2>(dag), std::get<2>(lin));
    EXPECT_EQ(std::get<1>(dag), std::get<1>(lin));
    EXPECT_EQ(std::get<0>(dag).abftChecks, std::get<0>(lin).abftChecks);
    EXPECT_EQ(std::get<0>(dag).abftCatches,
              std::get<0>(lin).abftCatches);
    EXPECT_EQ(std::get<0>(dag).tilesRecomputed,
              std::get<0>(lin).tilesRecomputed);

    // ABFT off: nothing recovers the flips, so they flow into the
    // next stage's butterflies. Both dispatch modes must carry them to
    // the same corrupted bytes — a butterfly chunk reads its partner
    // after the previous stage's injection point, never a copy taken
    // before it.
    ResilienceConfig off;
    off.abft = false;
    off.spotChecks = 0;
    for (uint64_t seed = 0; seed < 40; ++seed) {
        FaultModel flips;
        flips.seed = mix64(seed + 5);
        flips.computeBitFlipRate = 0.15;
        for (NttDirection dir :
             {NttDirection::Forward, NttDirection::Inverse}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                         toString(dir));
            auto dag_off = runWith(true, flips, off, dir);
            auto lin_off = runWith(false, flips, off, dir);
            EXPECT_EQ(std::get<1>(dag_off), std::get<1>(lin_off));
            EXPECT_TRUE(std::get<2>(dag_off) == std::get<2>(lin_off));
        }
    }
}

// ---------------------------------------------------------------------
// Resilient engine: degraded mode.
// ---------------------------------------------------------------------

TEST(ResilientEngine, DeviceLossDegradesToHalfTheGpusAndStaysExact)
{
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);
    std::vector<F> expect = x;
    nttNoPermute(expect, NttDirection::Forward);

    FaultModel m;
    m.dropouts.push_back({5, 1}); // dies at the second cross exchange
    FaultInjector inj(m);
    auto dist = DistributedVector<F>::fromGlobal(x, 8);
    Result<SimReport> r = engine.forwardResilient(dist, inj);
    ASSERT_TRUE(r.ok()) << r.status().toString();

    EXPECT_EQ(dist.numGpus(), 4u);
    EXPECT_EQ(dist.toGlobal(), expect);
    const FaultStats &fs = r.value().faultStats();
    EXPECT_EQ(fs.devicesLost, 1u);
    EXPECT_EQ(fs.degradedReplans, 1u);

    // The recovery shows up as a priced phase.
    bool found = false;
    for (const auto &ph : r.value().phases())
        if (ph.name.find("degrade-to-4gpu") != std::string::npos) {
            found = true;
            EXPECT_GT(ph.seconds, 0.0);
        }
    EXPECT_TRUE(found);
}

TEST(ResilientEngine, DoubleDropoutDegradesToOneGpu)
{
    auto sys = makeDgxA100(4);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 10);
    std::vector<F> expect = x;
    nttNoPermute(expect, NttDirection::Forward);

    FaultModel m;
    m.dropouts.push_back({1, 0});
    m.dropouts.push_back({0, 1});
    FaultInjector inj(m);
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    Result<SimReport> r = engine.forwardResilient(dist, inj);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(dist.numGpus(), 1u);
    EXPECT_EQ(dist.toGlobal(), expect);
    EXPECT_EQ(r.value().faultStats().devicesLost, 2u);
}

TEST(ResilientEngine, InverseSurvivesDeviceLoss)
{
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);

    // Forward cleanly, then lose a device during the inverse.
    auto dist = DistributedVector<F>::fromGlobal(x, 8);
    FaultInjector none(FaultModel::none());
    ASSERT_TRUE(engine.forwardResilient(dist, none).ok());

    FaultModel m;
    m.dropouts.push_back({2, 0});
    FaultInjector inj(m);
    Result<SimReport> r = engine.inverseResilient(dist, inj);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(dist.numGpus(), 4u);
    EXPECT_EQ(dist.toGlobal(), x);
}

TEST(ResilientEngine, DegradedModeCanBeDisabled)
{
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);
    auto dist = DistributedVector<F>::fromGlobal(x, 8);

    FaultModel m;
    m.dropouts.push_back({5, 0});
    FaultInjector inj(m);
    ResilienceConfig rc;
    rc.allowDegraded = false;
    Result<SimReport> r = engine.forwardResilient(dist, inj, rc);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DeviceLost);
}

// ---------------------------------------------------------------------
// Resilient engine: chaos under overlap (DAG wave dispatch).
// ---------------------------------------------------------------------

TEST(ResilientOverlap, MidOverlapKillDrainsAndStaysExact)
{
    // With the DAG dispatch, the exchange of stage s+1 is drawn while
    // the second butterfly chunk of stage s is still pending — a kill
    // at that draw lands mid-overlap. The drain must complete the
    // in-flight chunks on the survivors before the reshard, so the
    // degraded output is still bit-exact.
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    ASSERT_TRUE(engine.schedule(12, NttDirection::Forward)->overlapped);
    std::vector<F> x = testVector(1 << 12);
    std::vector<F> expect = x;
    nttNoPermute(expect, NttDirection::Forward);

    // Exchange index 1 and 2: both draws happen while the previous
    // stage's chunk-1 butterflies are still in flight.
    for (unsigned at : {1u, 2u}) {
        SCOPED_TRACE("kill at exchange " + std::to_string(at));
        FaultModel m;
        m.dropouts.push_back({5, at});
        FaultInjector inj(m);
        auto dist = DistributedVector<F>::fromGlobal(x, 8);
        Result<SimReport> r = engine.forwardResilient(dist, inj);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(dist.numGpus(), 4u);
        EXPECT_EQ(dist.toGlobal(), expect);
        EXPECT_EQ(r.value().faultStats().devicesLost, 1u);
    }
}

TEST(ResilientOverlap, MidOverlapKillReplaysDeterministically)
{
    // The drain order is DAG order, not pool order: two runs of the
    // same mid-overlap kill must price identical timelines and emit
    // identical phase sequences.
    auto sys = makeDgxA100(8);
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 12);

    auto campaign = [&] {
        FaultModel m;
        m.seed = 7;
        m.transientExchangeRate = 0.3;
        m.stragglerRate = 0.3;
        m.dropouts.push_back({3, 1});
        FaultInjector inj(m);
        auto dist = DistributedVector<F>::fromGlobal(x, 8);
        Result<SimReport> r = engine.forwardResilient(dist, inj);
        EXPECT_TRUE(r.ok());
        return r;
    };
    Result<SimReport> a = campaign();
    Result<SimReport> b = campaign();
    EXPECT_DOUBLE_EQ(a.value().totalSeconds(), b.value().totalSeconds());
    ASSERT_EQ(a.value().phases().size(), b.value().phases().size());
    for (size_t i = 0; i < a.value().phases().size(); ++i) {
        EXPECT_EQ(a.value().phases()[i].name,
                  b.value().phases()[i].name);
        EXPECT_EQ(a.value().phases()[i].seconds,
                  b.value().phases()[i].seconds); // bitwise
    }
}

TEST(ResilientOverlap, DegradeReplanProducesAValidDag)
{
    // The resume schedule compiled after a degradation must itself be
    // a DAG schedule (overlap stays on across the re-plan), never a
    // stale linear schedule — and its overlay must satisfy the same
    // structural invariants as a fresh compile.
    auto sys = makeDgxA100(8);
    const auto pl = planNtt(14, sys, sizeof(F));
    UniNttConfig cfg = UniNttConfig::allOn();
    ScheduleOptions opts;
    opts.resilient = true;
    opts.resume = true;
    opts.resumeStage = 1;
    opts.origLogMg = 3;
    auto degraded_sys = makeDgxA100(4);
    const auto degraded_pl = planNtt(14, degraded_sys, sizeof(F));
    const auto resume =
        compileSchedule(degraded_pl, degraded_sys,
                        NttDirection::Forward, sizeof(F), cfg,
                        CostConstants{}, opts);
    ASSERT_TRUE(resume.overlapped);
    ASSERT_FALSE(resume.dag.empty());
    std::vector<unsigned> nodes_per_step(resume.steps.size(), 0);
    for (size_t i = 0; i < resume.dag.size(); ++i) {
        const auto &nd = resume.dag[i];
        ASSERT_LT(nd.step, resume.steps.size());
        nodes_per_step[nd.step]++;
        for (uint32_t d : nd.deps)
            ASSERT_LT(d, i);
    }
    for (unsigned cnt : nodes_per_step)
        EXPECT_GE(cnt, 1u);

    // End to end: the engine's degrade path really dispatches the
    // resumed DAG (the functional outcome above already proves data
    // correctness; here the re-planned run must also keep overlap
    // pricing, i.e. hidden comm appears after the reshard).
    UniNttEngine<F> engine(sys);
    std::vector<F> x = testVector(1 << 14);
    FaultModel m;
    m.dropouts.push_back({6, 0}); // dies at the first exchange
    FaultInjector inj(m);
    auto dist = DistributedVector<F>::fromGlobal(x, 8);
    Result<SimReport> r = engine.forwardResilient(dist, inj);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    std::vector<F> expect = x;
    nttNoPermute(expect, NttDirection::Forward);
    EXPECT_EQ(dist.toGlobal(), expect);
    bool hidden_after_reshard = false, seen_reshard = false;
    for (const auto &ph : r.value().phases()) {
        if (ph.name.find("degrade-to-4gpu") != std::string::npos)
            seen_reshard = true;
        else if (seen_reshard && ph.hiddenSeconds > 0)
            hidden_after_reshard = true;
    }
    EXPECT_TRUE(seen_reshard);
    EXPECT_TRUE(hidden_after_reshard);
}

TEST(ResilientOverlap, LinearAndDagDispatchAgreeOnFaultAccounting)
{
    // Same injector seed through both dispatch modes: the fault draw
    // sequence, retry counters and checksummed byte counts must be
    // identical — overlap changes when work runs, never what the
    // fault machinery sees.
    auto sys = makeDgxA100(8);
    std::vector<F> x = testVector(1 << 12);
    FaultModel m;
    m.seed = 77;
    m.transientExchangeRate = 0.5;
    m.bitFlipRate = 0.5;
    m.stragglerRate = 0.5;

    auto runWith = [&](bool overlap) {
        UniNttConfig cfg = UniNttConfig::allOn();
        cfg.overlapComm = overlap;
        UniNttEngine<F> engine(sys, cfg);
        FaultInjector inj(m);
        auto dist = DistributedVector<F>::fromGlobal(x, 8);
        Result<SimReport> r = engine.forwardResilient(dist, inj);
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(dist.numGpus(), 8u);
        return std::make_pair(r.value().faultStats(),
                              dist.toGlobal());
    };
    auto dag = runWith(true);
    auto lin = runWith(false);
    EXPECT_EQ(dag.second, lin.second); // bit-identical outputs
    EXPECT_EQ(dag.first.exchanges, lin.first.exchanges);
    EXPECT_EQ(dag.first.transientRetries, lin.first.transientRetries);
    EXPECT_EQ(dag.first.corruptionsDetected,
              lin.first.corruptionsDetected);
    EXPECT_EQ(dag.first.stragglerEvents, lin.first.stragglerEvents);
    EXPECT_EQ(dag.first.checksummedBytes, lin.first.checksummedBytes);
}

// ---------------------------------------------------------------------
// Report surfacing.
// ---------------------------------------------------------------------

TEST(FaultStatsReport, CountersAppearInTheReportText)
{
    FaultStats fs;
    fs.transientRetries = 3;
    fs.corruptionsDetected = 1;
    SimReport report;
    report.addFaultStats(fs);
    std::string text = report.toString();
    EXPECT_NE(text.find("retries"), std::string::npos);
    EXPECT_NE(text.find("corruptions"), std::string::npos);
}

TEST(FaultStatsReport, CleanReportPrintsNoFaultLine)
{
    SimReport report;
    KernelStats k;
    k.fieldAdds = 10;
    PerfModel perf(makeDgxA100(1).gpu, fieldCostOf<F>());
    report.addKernelPhase("p", k, perf);
    EXPECT_EQ(report.toString().find("faults:"), std::string::npos);
}

TEST(FaultStatsReport, AbftCountersAppearInTheReportText)
{
    FaultStats fs;
    fs.abftChecks = 12;
    fs.abftCatches = 2;
    fs.tilesRecomputed = 3;
    fs.abftEscalations = 1;
    EXPECT_TRUE(fs.any());
    SimReport report;
    report.addFaultStats(fs);
    std::string text = report.toString();
    EXPECT_NE(text.find("abft"), std::string::npos);
    EXPECT_NE(text.find("recomputed"), std::string::npos);
}

TEST(FaultStatsReport, AppendMergesFaultCounters)
{
    SimReport a, b;
    FaultStats fs;
    fs.transientRetries = 2;
    a.addFaultStats(fs);
    b.addFaultStats(fs);
    a.append(b);
    EXPECT_EQ(a.faultStats().transientRetries, 4u);
}

} // namespace
} // namespace unintt
