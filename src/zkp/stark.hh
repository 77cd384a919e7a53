/**
 * @file
 * A complete (simplified) STARK for one algebraic intermediate
 * representation: the square-and-increment machine
 *
 *   t[0] = public start,   t[i+1] = t[i]^2 + 1.
 *
 * The prover commits the trace polynomial T, the transition quotient
 *
 *   Q = (T(g x) - T(x)^2 - 1) * (x - g^(n-1)) / Z_H(x)
 *
 * (the transition holds on all of H except the last row) and the
 * boundary quotient B = (T(x) - t0) / (x - 1), each through FRI on a
 * coset domain (so Z_H never vanishes there); transcript-sampled spot
 * checks tie the three commitments together. This is the hash-based
 * proof pipeline (Plonky2/STARK-style) whose LDEs are exactly the
 * Goldilocks NTT workload the paper accelerates.
 *
 * Simplifications vs production STARKs, stated honestly: one column,
 * one transition constraint, no zero-knowledge blinding, no DEEP
 * out-of-domain sampling (soundness rests on the plain FRI + spot-
 * check argument), and the toy sponge of zkp/transcript.hh.
 */

#ifndef UNINTT_ZKP_STARK_HH
#define UNINTT_ZKP_STARK_HH

#include <functional>
#include <string>
#include <vector>

#include "field/goldilocks.hh"
#include "util/status.hh"
#include "zkp/checkpoint.hh"
#include "zkp/fri.hh"

namespace unintt {

/** STARK parameters. */
struct StarkParams
{
    /** log2 LDE blowup; >= 2 because the constraint is degree 2. */
    unsigned logBlowup = 2;
    /** Spot checks tying trace/quotient/boundary together. */
    unsigned numQueries = 24;
    /** FRI termination size. */
    unsigned friFinalTerms = 8;
};

/** Openings for one spot check. */
struct StarkQuery
{
    Goldilocks traceCur;  ///< T at the queried point x.
    Goldilocks traceNext; ///< T at g*x (next trace row).
    Goldilocks quotient;  ///< Q at x.
    Goldilocks boundary;  ///< B at x.
    MerklePath traceCurPath;
    MerklePath traceNextPath;
    MerklePath quotientPath;
    MerklePath boundaryPath;
};

/** A complete proof of correct execution. */
struct StarkProof
{
    /** log2 of the trace length. */
    unsigned logTrace = 0;
    /** The public input t[0]. */
    Goldilocks publicStart;
    FriProof traceFri;
    FriProof quotientFri;
    FriProof boundaryFri;
    std::vector<StarkQuery> queries;
};

/** Prover/verifier pair for the square-and-increment AIR. */
class SquareStark
{
  public:
    explicit SquareStark(StarkParams params = StarkParams{});

    /**
     * Prove that the machine started at @p t0 and ran 2^log_trace - 1
     * steps of t <- t^2 + 1: proveCheckpointed() on a private store,
     * so every proof comes from the same stage walk. log_trace must
     * exceed log2(friFinalTerms) + 1 so FRI has at least one round; a
     * shorter trace is a user error (fatal(), exit status 1), and any
     * other failure is an internal one (panic).
     */
    StarkProof prove(Goldilocks t0, unsigned log_trace) const;

    /**
     * Gate consulted before a pipeline stage executes; a non-ok
     * Status aborts the prove there with every earlier stage's
     * checkpoint already persisted. Used by tests and the chaos soak
     * to simulate a crash at an exact stage boundary.
     */
    using StageGate =
        std::function<Status(unsigned stage, const std::string &name)>;

    /** Pipeline stage indices of proveCheckpointed, in order. */
    enum Stage : unsigned {
        StageTraceLde = 0,
        StageTraceCommit = 1,
        StageQuotient = 2,
        StageQuotientCommit = 3,
        StageBoundary = 4,
        StageBoundaryCommit = 5,
        StageQueries = 6,
        NumStages = 7,
    };

    /**
     * The prover's stage walk, checkpointing each stage (and each FRI
     * round) into @p store. Each stage's output is persisted as it
     * completes, sealed with a position-salted checksum; a rerun after
     * an interruption restores every valid checkpoint and recomputes
     * only from the first missing (or corrupted — a failed seal reads
     * as missing) stage onward. The produced proof is the same bytes
     * however many times the pipeline was interrupted and resumed. A
     * trace too short for FRI returns InvalidArgument.
     *
     * Checkpoint keys are namespaced by (t0, log_trace), so one store
     * can serve many proof instances without cross-talk.
     *
     * @param gate Optional per-stage interruption hook (see
     *     StageGate); consulted only before stages that actually run.
     * @param round_gate Optional per-FRI-round interruption hook,
     *     forwarded to the commit stages' round checkpointer.
     */
    Result<StarkProof> proveCheckpointed(
        Goldilocks t0, unsigned log_trace, CheckpointStore &store,
        const StageGate &gate = {},
        const FriRoundGate &round_gate = {}) const;

    /** Verify a proof. */
    bool verify(const StarkProof &proof) const;

    /** The (honest) trace for cross-checking in tests. */
    static std::vector<Goldilocks> runMachine(Goldilocks t0, size_t steps);

  private:
    StarkParams params_;
};

} // namespace unintt

#endif // UNINTT_ZKP_STARK_HH
