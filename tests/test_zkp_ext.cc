/**
 * @file
 * Tests for the extended ZKP substrate: the QAP quotient computation
 * and the Fiat–Shamir transcript.
 */

#include <gtest/gtest.h>

#include "field/goldilocks.hh"
#include "util/random.hh"
#include "zkp/quotient.hh"
#include "zkp/transcript.hh"

namespace unintt {
namespace {

using F = Goldilocks;

std::vector<F>
randomVector(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<F> v(n);
    for (auto &e : v)
        e = F::fromU64(rng.next());
    return v;
}

// ---------------------------------------------------------------------
// QAP quotient.
// ---------------------------------------------------------------------

class QuotientTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(QuotientTest, SatisfiedSystemYieldsValidQuotient)
{
    unsigned log_n = GetParam();
    size_t n = 1ULL << log_n;
    // Build a satisfied "constraint system": random A, B and C = A.*B.
    auto a_evals = randomVector(n, 30 + log_n);
    auto b_evals = randomVector(n, 31 + log_n);
    std::vector<F> c_evals(n);
    for (size_t i = 0; i < n; ++i)
        c_evals[i] = a_evals[i] * b_evals[i];

    auto h = computeQuotient(a_evals, b_evals, c_evals);
    EXPECT_LE(h.degree() + 2, n);

    auto a = Polynomial<F>::interpolate(a_evals);
    auto b = Polynomial<F>::interpolate(b_evals);
    auto c = Polynomial<F>::interpolate(c_evals);
    // Schwartz-Zippel check at random points outside the domain.
    Rng rng(32);
    for (int i = 0; i < 4; ++i) {
        F x = F::fromU64(rng.next());
        EXPECT_TRUE(checkQuotientAt(a, b, c, h, n, x));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuotientTest,
                         ::testing::Values(2u, 4u, 6u, 8u));

TEST(QuotientDeath, UnsatisfiedSystemIsFatal)
{
    size_t n = 16;
    auto a = randomVector(n, 40);
    auto b = randomVector(n, 41);
    std::vector<F> c(n);
    for (size_t i = 0; i < n; ++i)
        c[i] = a[i] * b[i];
    c[7] += F::one(); // break one constraint
    EXPECT_EXIT(computeQuotient(a, b, c), ::testing::ExitedWithCode(1),
                "unsatisfied at row 7");
}

// ---------------------------------------------------------------------
// Fiat–Shamir transcript.
// ---------------------------------------------------------------------

TEST(TranscriptTest, DeterministicReplay)
{
    Transcript prover("proto"), verifier("proto");
    prover.absorbU64(42);
    verifier.absorbU64(42);
    prover.absorbU256(U256(1, 2, 3, 4));
    verifier.absorbU256(U256(1, 2, 3, 4));
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(prover.challengeU64(), verifier.challengeU64());
    EXPECT_EQ(prover.challengeFr(), verifier.challengeFr());
}

TEST(TranscriptTest, DomainSeparation)
{
    Transcript a("proto-a"), b("proto-b");
    a.absorbU64(1);
    b.absorbU64(1);
    EXPECT_NE(a.challengeU64(), b.challengeU64());
}

TEST(TranscriptTest, OrderSensitive)
{
    Transcript a("p"), b("p");
    a.absorbU64(1);
    a.absorbU64(2);
    b.absorbU64(2);
    b.absorbU64(1);
    EXPECT_NE(a.challengeU64(), b.challengeU64());
}

TEST(TranscriptTest, AbsorbedDataChangesChallenges)
{
    Transcript a("p"), b("p");
    a.absorbU64(7);
    b.absorbU64(8);
    EXPECT_NE(a.challengeU64(), b.challengeU64());
}

TEST(TranscriptTest, ChallengeStreamVaries)
{
    Transcript t("p");
    t.absorbU64(1);
    uint64_t prev = t.challengeU64();
    int distinct = 0;
    for (int i = 0; i < 50; ++i) {
        uint64_t next = t.challengeU64();
        if (next != prev)
            ++distinct;
        prev = next;
    }
    EXPECT_GE(distinct, 49);
}

TEST(TranscriptTest, InterleavedAbsorbRekeys)
{
    Transcript a("p"), b("p");
    a.absorbU64(1);
    b.absorbU64(1);
    (void)a.challengeU64();
    (void)b.challengeU64();
    a.absorbU64(2);
    b.absorbU64(3);
    EXPECT_NE(a.challengeU64(), b.challengeU64());
}

TEST(TranscriptTest, PermutationIsNotIdentityAndDiffuses)
{
    std::array<Goldilocks, Transcript::kWidth> s{};
    s[0] = Goldilocks::one();
    auto t = s;
    Transcript::permute(t);
    // Every lane moves (full diffusion from one active input).
    for (unsigned i = 0; i < Transcript::kWidth; ++i)
        EXPECT_NE(t[i], s[i]) << i;

    // Single-bit input change flips the whole state.
    std::array<Goldilocks, Transcript::kWidth> s2{};
    s2[0] = Goldilocks::fromU64(2);
    Transcript::permute(s2);
    for (unsigned i = 0; i < Transcript::kWidth; ++i)
        EXPECT_NE(t[i], s2[i]) << i;
}

TEST(TranscriptTest, LabelLengthPrefixPreventsSplicing)
{
    Transcript a("p"), b("p");
    a.absorbLabel("ab");
    a.absorbLabel("c");
    b.absorbLabel("a");
    b.absorbLabel("bc");
    EXPECT_NE(a.challengeU64(), b.challengeU64());
}

} // namespace
} // namespace unintt
