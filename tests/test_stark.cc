/**
 * @file
 * Tests for the coset-FRI extension and the SquareStark: completeness
 * across trace lengths and parameters, and rejection of wrong public
 * inputs, tampered trace/quotient openings, and spliced proofs.
 */

#include <gtest/gtest.h>

#include "util/random.hh"
#include "zkp/stark.hh"

namespace unintt {
namespace {

using F = Goldilocks;

TEST(CosetFri, CompletenessOnCoset)
{
    Rng rng(1);
    std::vector<F> coeffs(1 << 8);
    for (auto &c : coeffs)
        c = F::fromU64(rng.next());
    FriParams params;
    params.cosetShift = F::multiplicativeGenerator();
    Transcript pt("coset-fri");
    auto proof = friProve(coeffs, params, pt);
    Transcript vt("coset-fri");
    EXPECT_TRUE(friVerify(proof, params, vt));

    // The same proof does not verify on the plain subgroup domain.
    FriParams plain;
    Transcript vt2("coset-fri");
    EXPECT_FALSE(friVerify(proof, plain, vt2));
}

TEST(CosetFri, ArtifactsExposeRoundZero)
{
    Rng rng(2);
    std::vector<F> coeffs(1 << 7);
    for (auto &c : coeffs)
        c = F::fromU64(rng.next());
    FriParams params;
    params.cosetShift = F::multiplicativeGenerator();
    Transcript pt("coset-fri");
    FriProverArtifacts art;
    auto proof = friProve(coeffs, params, pt, &art);
    ASSERT_TRUE(art.tree.has_value());
    EXPECT_EQ(art.codeword.size(), coeffs.size() << params.logBlowup);
    EXPECT_EQ(art.tree->root(), proof.roots[0]);
    // Extra openings against the same root authenticate.
    auto path = art.tree->open(17);
    EXPECT_TRUE(
        MerkleTree::verify(proof.roots[0], path, {art.codeword[17]}));
}

TEST(StarkMachine, TraceFollowsRecurrence)
{
    auto trace = SquareStark::runMachine(F::fromU64(3), 5);
    ASSERT_EQ(trace.size(), 6u);
    EXPECT_EQ(trace[0], F::fromU64(3));
    EXPECT_EQ(trace[1], F::fromU64(10));
    EXPECT_EQ(trace[2], F::fromU64(101));
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_EQ(trace[i], trace[i - 1] * trace[i - 1] + F::one());
}

class StarkTest : public ::testing::Test
{
  protected:
    SquareStark stark_;
};

TEST_F(StarkTest, CompletenessAcrossTraceLengths)
{
    for (unsigned log_trace : {5u, 7u, 9u}) {
        auto proof = stark_.prove(F::fromU64(42), log_trace);
        EXPECT_TRUE(stark_.verify(proof)) << log_trace;
    }
}

TEST_F(StarkTest, CompletenessAcrossStartValues)
{
    Rng rng(3);
    for (int i = 0; i < 3; ++i) {
        auto proof = stark_.prove(F::fromU64(rng.next()), 6);
        EXPECT_TRUE(stark_.verify(proof));
    }
}

TEST_F(StarkTest, WrongPublicInputRejected)
{
    auto proof = stark_.prove(F::fromU64(42), 7);
    proof.publicStart = F::fromU64(43);
    EXPECT_FALSE(stark_.verify(proof));
}

TEST_F(StarkTest, TamperedTraceOpeningRejected)
{
    auto proof = stark_.prove(F::fromU64(42), 7);
    proof.queries[0].traceCur += F::one();
    EXPECT_FALSE(stark_.verify(proof));
}

TEST_F(StarkTest, TamperedQuotientOpeningRejected)
{
    auto proof = stark_.prove(F::fromU64(42), 7);
    proof.queries[1].quotient += F::one();
    EXPECT_FALSE(stark_.verify(proof));
}

TEST_F(StarkTest, TamperedBoundaryOpeningRejected)
{
    auto proof = stark_.prove(F::fromU64(42), 7);
    proof.queries[2].boundary += F::one();
    EXPECT_FALSE(stark_.verify(proof));
}

TEST_F(StarkTest, SplicedTraceCommitmentRejected)
{
    // A proof whose trace commitment comes from a different execution
    // must fail: the transcript challenges diverge.
    auto p1 = stark_.prove(F::fromU64(1), 7);
    auto p2 = stark_.prove(F::fromU64(2), 7);
    auto spliced = p1;
    spliced.traceFri = p2.traceFri;
    EXPECT_FALSE(stark_.verify(spliced));
}

TEST_F(StarkTest, WrongTraceLengthClaimRejected)
{
    auto proof = stark_.prove(F::fromU64(42), 7);
    proof.logTrace = 8;
    EXPECT_FALSE(stark_.verify(proof));
}

TEST_F(StarkTest, TooShortTraceIsAUserError)
{
    // The default parameters need more than 2 * friFinalTerms = 16 rows.
    EXPECT_EXIT(stark_.prove(F::fromU64(3), 4),
                ::testing::ExitedWithCode(1), "trace too short");
}

TEST_F(StarkTest, ParameterMismatchRejected)
{
    auto proof = stark_.prove(F::fromU64(42), 7);
    StarkParams other;
    other.numQueries = 25; // verifier expects a different query count
    SquareStark other_stark(other);
    EXPECT_FALSE(other_stark.verify(proof));
}

} // namespace
} // namespace unintt
