/**
 * @file
 * Tests for the BN254 G1 curve arithmetic and the Pippenger MSM:
 * group laws, scalar-multiplication algebra, Pippenger-vs-naive
 * equivalence, and the multi-GPU MSM timing structure (G1 and the
 * G2 pricing the prover uses).
 */

#include <gtest/gtest.h>

#include "msm/curve.hh"
#include "msm/pippenger.hh"
#include "util/random.hh"

namespace unintt {
namespace {

/** Pseudorandom curve point: a random multiple of the generator. */
G1Jacobian
randomPoint(Rng &rng)
{
    return G1Jacobian::generator().scalarMul(U256(rng.next()));
}

U256
randomScalar(Rng &rng)
{
    // Stay below the group order by zeroing the top limb's high bits.
    return U256(rng.next(), rng.next(), rng.next(), rng.next() >> 4);
}

TEST(Curve, GeneratorIsOnCurve)
{
    EXPECT_TRUE(G1Affine::generator().isOnCurve());
    EXPECT_FALSE((G1Affine{Bn254Fq::fromU64(1), Bn254Fq::fromU64(1)})
                     .isOnCurve());
    EXPECT_TRUE(G1Affine::infinity().isOnCurve());
}

TEST(Curve, DoubleMatchesAdd)
{
    Rng rng(1);
    for (int i = 0; i < 10; ++i) {
        auto p = randomPoint(rng);
        EXPECT_TRUE(p.dbl() == p.add(p));
    }
}

TEST(Curve, AdditionCommutesAndAssociates)
{
    Rng rng(2);
    for (int i = 0; i < 10; ++i) {
        auto p = randomPoint(rng);
        auto q = randomPoint(rng);
        auto r = randomPoint(rng);
        EXPECT_TRUE(p.add(q) == q.add(p));
        EXPECT_TRUE(p.add(q).add(r) == p.add(q.add(r)));
    }
}

TEST(Curve, IdentityAndInverse)
{
    Rng rng(3);
    auto p = randomPoint(rng);
    EXPECT_TRUE(p.add(G1Jacobian::infinity()) == p);
    EXPECT_TRUE(G1Jacobian::infinity().add(p) == p);
    EXPECT_TRUE(p.add(p.neg()).isInfinity());
}

TEST(Curve, MixedAddMatchesFullAdd)
{
    Rng rng(4);
    for (int i = 0; i < 10; ++i) {
        auto p = randomPoint(rng);
        auto q = randomPoint(rng);
        auto q_affine = q.toAffine();
        EXPECT_TRUE(p.addAffine(q_affine) == p.add(q));
    }
    // Edge: adding a point to itself through the mixed path.
    auto p = randomPoint(rng);
    EXPECT_TRUE(p.addAffine(p.toAffine()) == p.dbl());
    // Edge: adding the negation yields infinity.
    EXPECT_TRUE(p.addAffine(p.neg().toAffine()).isInfinity());
}

TEST(Curve, AffineRoundTrip)
{
    Rng rng(5);
    auto p = randomPoint(rng);
    auto a = p.toAffine();
    EXPECT_TRUE(a.isOnCurve());
    EXPECT_TRUE(G1Jacobian::fromAffine(a) == p);
}

TEST(Curve, ScalarMulSmallMultiples)
{
    auto g = G1Jacobian::generator();
    auto acc = G1Jacobian::infinity();
    for (uint64_t k = 0; k <= 16; ++k) {
        EXPECT_TRUE(g.scalarMul(U256(k)) == acc) << "k=" << k;
        acc = acc.add(g);
    }
}

TEST(Curve, ScalarMulDistributes)
{
    Rng rng(6);
    auto g = G1Jacobian::generator();
    for (int i = 0; i < 5; ++i) {
        uint64_t a = rng.next() >> 32;
        uint64_t b = rng.next() >> 32;
        auto lhs = g.scalarMul(U256(a + b));
        auto rhs = g.scalarMul(U256(a)).add(g.scalarMul(U256(b)));
        EXPECT_TRUE(lhs == rhs);
    }
}

TEST(Curve, GroupOrderAnnihilates)
{
    // r * G = infinity for the Fr modulus r.
    auto g = G1Jacobian::generator();
    EXPECT_TRUE(g.scalarMul(Bn254FrParams::kModulus).isInfinity());
}

TEST(Pippenger, MatchesNaiveSmall)
{
    Rng rng(7);
    for (size_t n : {1u, 2u, 7u, 33u}) {
        std::vector<G1Affine> points;
        std::vector<U256> scalars;
        for (size_t i = 0; i < n; ++i) {
            points.push_back(randomPoint(rng).toAffine());
            scalars.push_back(randomScalar(rng));
        }
        EXPECT_TRUE(pippengerMsm(points, scalars) ==
                    naiveMsm(points, scalars))
            << "n=" << n;
    }
}

TEST(Pippenger, WindowWidthInsensitive)
{
    Rng rng(8);
    std::vector<G1Affine> points;
    std::vector<U256> scalars;
    for (size_t i = 0; i < 25; ++i) {
        points.push_back(randomPoint(rng).toAffine());
        scalars.push_back(randomScalar(rng));
    }
    auto expect = naiveMsm(points, scalars);
    for (unsigned c : {1u, 4u, 8u, 13u})
        EXPECT_TRUE(pippengerMsm(points, scalars, c) == expect)
            << "c=" << c;
}

TEST(Pippenger, HandlesZeroScalarsAndInfinity)
{
    Rng rng(9);
    std::vector<G1Affine> points{randomPoint(rng).toAffine(),
                                 G1Affine::infinity(),
                                 randomPoint(rng).toAffine()};
    std::vector<U256> scalars{U256(0), randomScalar(rng), U256(5)};
    EXPECT_TRUE(pippengerMsm(points, scalars) == naiveMsm(points, scalars));
    EXPECT_TRUE(pippengerMsm({}, {}).isInfinity());
}

TEST(Pippenger, AutoWindowGrowsWithSize)
{
    EXPECT_LT(pippengerWindowBits(64), pippengerWindowBits(1 << 20));
    EXPECT_GE(pippengerWindowBits(1), 1u);
    EXPECT_LE(pippengerWindowBits(1ULL << 40), 16u);
}

TEST(MsmEngineTest, FunctionalMatchesPippenger)
{
    Rng rng(10);
    std::vector<G1Affine> points;
    std::vector<U256> scalars;
    for (size_t i = 0; i < 40; ++i) {
        points.push_back(randomPoint(rng).toAffine());
        scalars.push_back(randomScalar(rng));
    }
    MsmEngine engine(makeDgxA100(4));
    SimReport report;
    auto got = engine.msm(points, scalars, &report);
    EXPECT_TRUE(got == pippengerMsm(points, scalars));
    EXPECT_GT(report.totalSeconds(), 0.0);
}

TEST(MsmEngineTest, ScalesAcrossGpus)
{
    // MSM partitions trivially: per-GPU work (and so simulated time)
    // drops nearly linearly with the device count.
    size_t n = 1ULL << 22;
    double t1 = MsmEngine(makeDgxA100(1)).analyticRun(n).totalSeconds();
    double t8 = MsmEngine(makeDgxA100(8)).analyticRun(n).totalSeconds();
    EXPECT_GT(t1 / t8, 4.0);
    EXPECT_LT(t1 / t8, 9.0);
}

TEST(G2Msm, EngineG2CostsMoreThanG1)
{
    // The prover prices Groth16's [B]_2 MSM with extension-field
    // arithmetic and twice the point footprint: dearer than G1, by a
    // bounded factor.
    MsmEngine engine(makeDgxA100(4));
    double g1 = engine.analyticRun(1 << 20, false).totalSeconds();
    double g2 = engine.analyticRun(1 << 20, true).totalSeconds();
    EXPECT_GT(g2, g1 * 1.5);
    EXPECT_LT(g2, g1 * 5.0);
}

} // namespace
} // namespace unintt
