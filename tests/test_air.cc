/**
 * @file
 * Tests for the AIR STARK engine: the Fibonacci instance, the square
 * machine as an AIR (byte-for-byte the SquareStark proof), trace
 * satisfiability checking, completeness, checkpoint/resume of a
 * two-column AIR, and the usual battery of tampering rejections
 * (wrong public inputs, forged openings, spliced commitments, degree
 * lies).
 */

#include <gtest/gtest.h>

#include <set>

#include "util/random.hh"
#include "zkp/air.hh"
#include "zkp/serialize.hh"
#include "zkp/stark.hh"

namespace unintt {
namespace {

using F = Goldilocks;

std::vector<uint8_t>
bytesOf(const AirProof &proof)
{
    ByteWriter w;
    writeAirProof(w, proof);
    return w.bytes();
}

std::vector<uint8_t>
bytesOf(const FriProof &proof)
{
    return serializeFriProof(proof);
}

void
expectSamePath(const MerklePath &a, const MerklePath &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.siblings, b.siblings);
}

TEST(FibonacciAir, TraceAndSatisfiability)
{
    auto trace = fibonacciTrace(F::one(), F::one(), 4);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[1][1], F::fromU64(2));
    EXPECT_EQ(trace[1][2], F::fromU64(3));
    EXPECT_EQ(trace[1][3], F::fromU64(5));
    EXPECT_EQ(trace[1][10], F::fromU64(144));

    AirStark stark(fibonacciAir(F::one(), F::one()));
    EXPECT_TRUE(stark.traceSatisfies(trace));

    auto bad = trace;
    bad[1][7] += F::one();
    EXPECT_FALSE(stark.traceSatisfies(bad));

    auto wrong_start = trace;
    wrong_start[0][0] = F::fromU64(9);
    EXPECT_FALSE(stark.traceSatisfies(wrong_start));
}

TEST(FibonacciAir, ProveAndVerify)
{
    AirStark stark(fibonacciAir(F::one(), F::one()));
    for (unsigned log_rows : {5u, 7u}) {
        auto proof =
            stark.prove(fibonacciTrace(F::one(), F::one(), log_rows));
        EXPECT_TRUE(stark.verify(proof)) << log_rows;
        EXPECT_EQ(proof.columnFris.size(), 2u);
    }
}

TEST(FibonacciAir, DifferentStartValues)
{
    AirStark stark(fibonacciAir(F::fromU64(3), F::fromU64(4)));
    auto proof =
        stark.prove(fibonacciTrace(F::fromU64(3), F::fromU64(4), 6));
    EXPECT_TRUE(stark.verify(proof));
    // A verifier expecting different public inputs rejects.
    AirStark other(fibonacciAir(F::fromU64(3), F::fromU64(5)));
    EXPECT_FALSE(other.verify(proof));
}

TEST(SquareAir, MatchesDedicatedStarkSemantics)
{
    // The square machine through the AIR front is SquareStark's proof,
    // field for field: one engine, one transcript, one set of bytes.
    const std::pair<uint64_t, unsigned> cases[] = {{42, 7}, {3, 5}, {77, 9}};
    for (const auto &[start, log_trace] : cases) {
        SCOPED_TRACE(testing::Message() << "start " << start
                                        << ", log_trace " << log_trace);
        const F t0 = F::fromU64(start);
        AirStark stark(squareAir(t0));
        const AirProof air = stark.prove(squareTrace(t0, log_trace));
        EXPECT_TRUE(stark.verify(air));
        const StarkProof sq = SquareStark().prove(t0, log_trace);

        EXPECT_EQ(air.logTrace, sq.logTrace);
        ASSERT_EQ(air.boundaries.size(), 1u);
        EXPECT_EQ(air.boundaries[0].column, 0u);
        EXPECT_EQ(air.boundaries[0].value, sq.publicStart);
        ASSERT_EQ(air.columnFris.size(), 1u);
        EXPECT_EQ(bytesOf(air.columnFris[0]), bytesOf(sq.traceFri));
        EXPECT_EQ(bytesOf(air.quotientFri), bytesOf(sq.quotientFri));
        EXPECT_EQ(bytesOf(air.boundaryFri), bytesOf(sq.boundaryFri));
        ASSERT_EQ(air.queries.size(), sq.queries.size());
        for (size_t q = 0; q < sq.queries.size(); ++q) {
            const auto &a = air.queries[q];
            const auto &b = sq.queries[q];
            ASSERT_EQ(a.cur.size(), 1u);
            ASSERT_EQ(a.next.size(), 1u);
            EXPECT_EQ(a.cur[0], b.traceCur);
            EXPECT_EQ(a.next[0], b.traceNext);
            EXPECT_EQ(a.quotient, b.quotient);
            EXPECT_EQ(a.boundary, b.boundary);
            ASSERT_EQ(a.curPaths.size(), 1u);
            ASSERT_EQ(a.nextPaths.size(), 1u);
            expectSamePath(a.curPaths[0], b.traceCurPath);
            expectSamePath(a.nextPaths[0], b.traceNextPath);
            expectSamePath(a.quotientPath, b.quotientPath);
            expectSamePath(a.boundaryPath, b.boundaryPath);
        }
        // The two wire forms are one encoding.
        EXPECT_EQ(bytesOf(air), serializeStarkProof(sq));
    }
}

TEST(AirTamper, ForgedOpeningsRejected)
{
    AirStark stark(fibonacciAir(F::one(), F::one()));
    auto proof = stark.prove(fibonacciTrace(F::one(), F::one(), 7));

    auto t1 = proof;
    t1.queries[0].cur[0] += F::one();
    EXPECT_FALSE(stark.verify(t1));

    auto t2 = proof;
    t2.queries[1].next[1] += F::one();
    EXPECT_FALSE(stark.verify(t2));

    auto t3 = proof;
    t3.queries[2].quotient += F::one();
    EXPECT_FALSE(stark.verify(t3));

    auto t4 = proof;
    t4.queries[3].boundary += F::one();
    EXPECT_FALSE(stark.verify(t4));
}

TEST(AirTamper, SplicedColumnCommitmentRejected)
{
    AirStark stark(fibonacciAir(F::one(), F::one()));
    auto p1 = stark.prove(fibonacciTrace(F::one(), F::one(), 6));

    AirStark stark2(fibonacciAir(F::one(), F::one()));
    auto p2 = stark2.prove(fibonacciTrace(F::one(), F::one(), 6));
    // Same statement, so p2 verifies; but mixing p2's column into p1
    // breaks the Fiat-Shamir binding of the spot checks... the proofs
    // are identical for identical inputs (deterministic prover), so
    // tamper a root instead.
    EXPECT_TRUE(stark.verify(p2));
    auto spliced = p1;
    spliced.columnFris[0].roots[0][0] += F::one();
    EXPECT_FALSE(stark.verify(spliced));
}

TEST(AirTamper, WrongTraceLengthRejected)
{
    AirStark stark(fibonacciAir(F::one(), F::one()));
    auto proof = stark.prove(fibonacciTrace(F::one(), F::one(), 7));
    proof.logTrace = 8;
    EXPECT_FALSE(stark.verify(proof));
}

TEST(AirTamper, EchoedBoundaryMustMatchAir)
{
    AirStark stark(fibonacciAir(F::one(), F::one()));
    auto proof = stark.prove(fibonacciTrace(F::one(), F::one(), 6));
    proof.boundaries[0].value = F::fromU64(2);
    EXPECT_FALSE(stark.verify(proof));
}

TEST(AirDeath, UnsatisfiedTraceIsFatal)
{
    AirStark stark(fibonacciAir(F::one(), F::one()));
    auto trace = fibonacciTrace(F::one(), F::one(), 6);
    trace[0][5] += F::one();
    EXPECT_EXIT(stark.prove(trace), ::testing::ExitedWithCode(1),
                "does not satisfy the AIR");
}

TEST(AirDeath, TooShortTraceIsAUserError)
{
    // The default parameters need more than 2 * friFinalTerms = 16 rows.
    AirStark stark(fibonacciAir(F::one(), F::one()));
    EXPECT_EXIT(stark.prove(fibonacciTrace(F::one(), F::one(), 4)),
                ::testing::ExitedWithCode(1), "trace too short");
}

TEST(AirDeath, BlowupMustExceedConstraintDegree)
{
    Air air = squareAir(F::one());
    air.constraintDegree = 4;
    StarkParams p;
    p.logBlowup = 2; // 4 == degree, not >
    EXPECT_DEATH(AirStark(air, p), "blowup must exceed");
}

// ---------------------------------------------------------------------
// Checkpointed walk on a two-column AIR.
// ---------------------------------------------------------------------

TEST(CheckpointedAir, CrashAtEveryStageResumesByteIdentical)
{
    AirStark stark(fibonacciAir(F::fromU64(3), F::fromU64(4)));
    const auto trace = fibonacciTrace(F::fromU64(3), F::fromU64(4), 6);
    const auto ref = bytesOf(stark.prove(trace));

    for (unsigned k = 0; k < AirStark::NumStages; ++k) {
        CheckpointStore store;
        auto crash_at_k = [&](unsigned stage,
                              const std::string &) -> Status {
            if (stage == k)
                return Status::error(StatusCode::TransientFault,
                                     "killed at stage " +
                                         std::to_string(stage));
            return Status();
        };
        auto r1 = stark.proveCheckpointed(trace, store, crash_at_k);
        ASSERT_FALSE(r1.ok()) << "stage " << k;
        EXPECT_EQ(r1.status().code(), StatusCode::TransientFault);

        // The resume must execute exactly the stages from k on.
        std::set<unsigned> executed;
        auto record = [&](unsigned stage, const std::string &) {
            executed.insert(stage);
            return Status();
        };
        auto r2 = stark.proveCheckpointed(trace, store, record);
        ASSERT_TRUE(r2.ok()) << "stage " << k << ": "
                             << r2.status().toString();
        EXPECT_EQ(bytesOf(r2.value()), ref)
            << "resume after a crash at stage " << k
            << " diverged from the uninterrupted proof";
        EXPECT_TRUE(stark.verify(r2.value()));
        std::set<unsigned> expected;
        for (unsigned s = k; s < AirStark::NumStages; ++s)
            expected.insert(s);
        EXPECT_EQ(executed, expected) << "stage " << k;
    }
}

TEST(CheckpointedAir, CompletedPipelineShortCircuits)
{
    AirStark stark(fibonacciAir(F::one(), F::one()));
    const auto trace = fibonacciTrace(F::one(), F::one(), 6);
    CheckpointStore store;
    auto r1 = stark.proveCheckpointed(trace, store);
    ASSERT_TRUE(r1.ok()) << r1.status().toString();

    // With the final checkpoint in place not even a gate that kills
    // everything is consulted.
    auto kill_all = [](unsigned, const std::string &) {
        return Status::error(StatusCode::TransientFault, "kill");
    };
    auto r2 = stark.proveCheckpointed(trace, store, kill_all);
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(bytesOf(r2.value()), bytesOf(r1.value()));
}

} // namespace
} // namespace unintt
