/**
 * @file
 * Spot-check verification tests (unintt/verify.hh): clean transforms
 * always pass, systematic corruptions are always caught, a single
 * corrupted output is caught with the predicted probability — measured
 * across seeds against the binomial expectation — the sampled positions
 * follow the seed's Rng draws, and the resilient engine's verdicts and
 * bytes do not depend on threads, shards or the kernel table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "field/goldilocks.hh"
#include "ntt/radix2.hh"
#include "sim/fault.hh"
#include "sim/multi_gpu.hh"
#include "unintt/engine.hh"
#include "unintt/verify.hh"
#include "util/random.hh"

namespace unintt {
namespace {

using F = Goldilocks;

std::vector<F>
coefficients(size_t n, uint64_t salt = 0)
{
    std::vector<F> x(n);
    for (size_t i = 0; i < n; ++i)
        x[i] = F::fromU64(i * 6364136223846793005ULL + salt + 1);
    return x;
}

TEST(SpotCheckForward, CleanTransformPassesForEverySeed)
{
    std::vector<F> input = coefficients(1 << 8);
    std::vector<F> output = input;
    nttNoPermute(output, NttDirection::Forward);
    for (uint64_t seed = 0; seed < 50; ++seed)
        EXPECT_TRUE(spotCheckForward(input, output, 8, seed));
}

TEST(SpotCheckForward, SystematicCorruptionIsAlwaysCaught)
{
    // A wrong twiddle table or a mis-routed exchange corrupts a large
    // fraction of positions; here every position is off, so any sampled
    // check must see it.
    std::vector<F> input = coefficients(1 << 8);
    std::vector<F> output = input;
    nttNoPermute(output, NttDirection::Forward);
    for (auto &v : output)
        v += F::one();
    for (uint64_t seed = 0; seed < 50; ++seed)
        EXPECT_FALSE(spotCheckForward(input, output, 8, seed));
}

TEST(SpotCheckForward, SingleCorruptionCaughtAtTheExpectedRate)
{
    // One corrupted output among n=256; a set of c=32 random checks
    // catches it with p = 1 - (1 - 1/n)^c ~ 11.8%. Across 400 seeds the
    // detection count is binomial; accept a generous +-5 sigma band
    // (~[6.2%, 19.4%]) so the test is sharp enough to catch a broken
    // sampler but never flakes.
    const size_t n = 1 << 8;
    const unsigned checks = 32;
    std::vector<F> input = coefficients(n);
    std::vector<F> output = input;
    nttNoPermute(output, NttDirection::Forward);
    output[137] += F::one();

    const int trials = 400;
    int caught = 0;
    for (int seed = 0; seed < trials; ++seed)
        if (!spotCheckForward(input, output, checks,
                              static_cast<uint64_t>(seed)))
            caught++;

    const double p =
        1.0 - std::pow(1.0 - 1.0 / static_cast<double>(n), checks);
    const double sigma = std::sqrt(p * (1.0 - p) * trials);
    EXPECT_GT(caught, p * trials - 5 * sigma);
    EXPECT_LT(caught, p * trials + 5 * sigma);
}

TEST(SpotCheckInverse, CleanInversePassesForEverySeed)
{
    // Forward DIF maps coefficients to bit-reversed evaluations; the
    // inverse transform's (input, output) pair is exactly
    // (evaluations, coefficients).
    std::vector<F> coeffs = coefficients(1 << 8, 7);
    std::vector<F> evals = coeffs;
    nttNoPermute(evals, NttDirection::Forward);
    for (uint64_t seed = 0; seed < 50; ++seed)
        EXPECT_TRUE(spotCheckInverse(evals, coeffs, 8, seed));
}

TEST(SpotCheckInverse, RoundTripThroughTheReferencePasses)
{
    std::vector<F> evals = coefficients(1 << 8, 13);
    std::vector<F> coeffs = evals;
    nttNoPermute(coeffs, NttDirection::Inverse);
    for (uint64_t seed = 0; seed < 50; ++seed)
        EXPECT_TRUE(spotCheckInverse(evals, coeffs, 8, seed));
}

TEST(SpotCheckInverse, SystematicCorruptionIsAlwaysCaught)
{
    std::vector<F> coeffs = coefficients(1 << 8, 7);
    std::vector<F> evals = coeffs;
    nttNoPermute(evals, NttDirection::Forward);
    // A corrupted low coefficient shifts every evaluation.
    std::vector<F> bad = coeffs;
    bad[0] += F::one();
    for (uint64_t seed = 0; seed < 50; ++seed)
        EXPECT_FALSE(spotCheckInverse(evals, bad, 8, seed));
}

TEST(SpotCheckInverse, MissingScaleIsCaught)
{
    // Forgetting the n^-1 factor is the classic inverse-NTT bug.
    std::vector<F> coeffs = coefficients(1 << 8, 3);
    std::vector<F> evals = coeffs;
    nttNoPermute(evals, NttDirection::Forward);
    std::vector<F> unscaled = coeffs;
    F n = F::fromU64(coeffs.size());
    for (auto &v : unscaled)
        v *= n; // what the output looks like without the scaling pass
    EXPECT_FALSE(spotCheckInverse(evals, unscaled, 8, 1));
}

TEST(SpotCheck, SamplesThePositionsTheSeedDraws)
{
    // Check c samples position bitReverse(k_c), k_c the c-th
    // Rng(seed).below(n) draw. Corrupting the first draw's position
    // must fail the check for every seed; corrupting a position no
    // draw selects must pass it. Either direction.
    const unsigned log_n = 8, checks = 4;
    const size_t n = size_t{1} << log_n;
    const std::vector<F> coeffs = coefficients(n, 11);
    std::vector<F> evals = coeffs;
    nttNoPermute(evals, NttDirection::Forward);
    for (uint64_t seed = 0; seed < 50; ++seed) {
        Rng rng(seed);
        std::vector<uint64_t> drawn(checks);
        for (uint64_t &k : drawn)
            k = rng.below(n);
        uint64_t unsampled = 0;
        while (std::find(drawn.begin(), drawn.end(), unsampled) !=
               drawn.end())
            ++unsampled;
        for (uint64_t k : {drawn[0], unsampled}) {
            const bool sampled = k == drawn[0];
            std::vector<F> bad = evals;
            bad[bitReverse(k, log_n)] += F::one();
            EXPECT_EQ(spotCheckForward(coeffs, bad, checks, seed), !sampled)
                << "seed " << seed << " k " << k;
            EXPECT_EQ(spotCheckInverse(bad, coeffs, checks, seed), !sampled)
                << "seed " << seed << " k " << k;
        }
    }
}

TEST(SpotCheck, ResilientOutcomeIsIndependentOfThreadsShardsAndIsa)
{
    // A resilient forward and inverse at every (shards, table, threads)
    // point. Clean machine: every check passes and the bytes equal the
    // reference. In-kernel flips with ABFT off, where the spot check is
    // the only guard: per shard count (the fault draws depend on the
    // device count) every table and thread count gives the first
    // point's verdict and bytes, and some runs must fail the check.
    const unsigned log_n = 17;
    const std::vector<F> coeffs = coefficients(size_t{1} << log_n, 5);
    std::vector<F> evals = coeffs;
    nttNoPermute(evals, NttDirection::Forward);
    FaultModel flips;
    flips.seed = 0x5b07;
    flips.computeBitFlipRate = 0.5;

    unsigned spot_failures = 0;
    for (NttDirection dir : {NttDirection::Forward, NttDirection::Inverse}) {
        const bool fwd = dir == NttDirection::Forward;
        for (unsigned gpus : {1u, 2u, 4u}) {
            std::optional<std::pair<StatusCode, std::vector<F>>> first;
            for (IsaPath isa : availableIsaPaths()) {
                for (unsigned threads : {1u, 2u, 4u}) {
                    SCOPED_TRACE(std::string(fwd ? "forward" : "inverse") +
                                 " gpus=" + std::to_string(gpus) +
                                 " isa=" + isaPathName(isa) +
                                 " threads=" + std::to_string(threads));
                    UniNttConfig cfg;
                    cfg.isaPath = isa;
                    cfg.hostThreads = threads;
                    UniNttEngine<F> engine(makeDgxA100(gpus), cfg);
                    auto run = [&](const FaultModel &m, bool abft) {
                        ResilienceConfig rc;
                        rc.abft = abft;
                        FaultInjector inj(m);
                        auto d = DistributedVector<F>::fromGlobal(
                            fwd ? coeffs : evals, gpus);
                        Result<SimReport> r =
                            fwd ? engine.forwardResilient(d, inj, rc)
                                : engine.inverseResilient(d, inj, rc);
                        return std::make_pair(r.ok() ? StatusCode::Ok
                                                     : r.status().code(),
                                              d.toGlobal());
                    };
                    const auto clean = run(FaultModel::none(), true);
                    EXPECT_EQ(clean.first, StatusCode::Ok);
                    EXPECT_EQ(clean.second, fwd ? evals : coeffs);
                    const auto flipped = run(flips, false);
                    if (!first)
                        first = flipped;
                    EXPECT_EQ(flipped.first, first->first);
                    EXPECT_TRUE(flipped.second == first->second);
                    if (flipped.first == StatusCode::DataCorruption)
                        spot_failures++;
                }
            }
        }
    }
    EXPECT_GT(spot_failures, 0u);
}

} // namespace
} // namespace unintt
