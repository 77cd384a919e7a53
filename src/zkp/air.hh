/**
 * @file
 * The repo's one STARK engine, over algebraic intermediate
 * representations (AIRs): multi-column traces, transition constraints
 * between consecutive rows, and first-row boundary constraints. Every
 * proof comes from AirStark's checkpointed stage walk and is checked by
 * its one verifier; SquareStark (zkp/stark.hh) is the square-and-
 * increment machine's front over it, and the Fibonacci machine below
 * is another AIR.
 *
 * The prover commits every trace column T_c, then the transition
 * quotient and the boundary quotient, each through FRI on a coset
 * domain (so Z_H never vanishes there):
 *
 *   Q(x) = C(row(x), row(gx)) (x - g^(n-1)) / Z_H(x)
 *   B(x) = D(row(x)) / (x - 1)
 *
 * C is the AIR's transition constraint, or sum_i alpha_i C_i with
 * transcript challenges alpha_i drawn after the column commitments
 * when there are several; D is likewise the boundary numerator
 * T_c(x) - v, or sum_j beta_j (T_cj(x) - v_j). So the proof size does
 * not grow with the constraint count. Transcript-sampled spot checks
 * tie the commitments together. The LDEs are exactly the Goldilocks
 * NTT workload the paper accelerates.
 *
 * Simplifications vs production STARKs, stated honestly: no zero-
 * knowledge blinding, no DEEP out-of-domain sampling (soundness rests
 * on the plain FRI + spot-check argument), and the toy sponge of
 * zkp/transcript.hh.
 */

#ifndef UNINTT_ZKP_AIR_HH
#define UNINTT_ZKP_AIR_HH

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
    /** log2 LDE blowup; 2^logBlowup must exceed the constraint degree. */
    unsigned logBlowup = 2;
    /** Spot checks tying the commitments together. */
    unsigned numQueries = 24;
    /** FRI termination size. */
    unsigned friFinalTerms = 8;
};

/** An algebraic intermediate representation. */
struct Air
{
    /** Constraint: must vanish on (row_i, row_{i+1}) for i < n-1. */
    using Transition = std::function<Goldilocks(
        const std::vector<Goldilocks> &cur,
        const std::vector<Goldilocks> &next)>;

    /** Pin trace column @p column to @p value at the first row. */
    struct Boundary
    {
        unsigned column;
        Goldilocks value;
    };

    /**
     * Protocol name, for domain separation between AIRs: the
     * transcript label is "unintt-<name>-v1", and checkpoint keys are
     * namespaced by it.
     */
    std::string name;
    /** Trace width. */
    unsigned columns = 1;
    /** Max total degree of any transition in the trace values. */
    unsigned constraintDegree = 2;
    std::vector<Transition> transitions;
    std::vector<Boundary> boundaries;
};

/** A proof of correct execution of an AIR. */
struct AirProof
{
    unsigned logTrace = 0;
    /** Boundary values are public inputs; echoed in the proof. */
    std::vector<Air::Boundary> boundaries;
    /** One commitment per trace column. */
    std::vector<FriProof> columnFris;
    FriProof quotientFri;
    FriProof boundaryFri;

    /** One spot check: all columns at x and g*x, plus Q and B at x. */
    struct Query
    {
        std::vector<Goldilocks> cur;  ///< column values at x
        std::vector<Goldilocks> next; ///< column values at g*x
        Goldilocks quotient;
        Goldilocks boundary;
        std::vector<MerklePath> curPaths;
        std::vector<MerklePath> nextPaths;
        MerklePath quotientPath;
        MerklePath boundaryPath;
    };
    std::vector<Query> queries;
};

/** The STARK prover and verifier for a fixed AIR. */
class AirStark
{
  public:
    explicit AirStark(Air air, StarkParams params = StarkParams{});

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
     * Prove that @p trace (columns-major: trace[c][i] is column c,
     * row i; all columns 2^log_trace rows) satisfies the AIR:
     * proveCheckpointed() on a private store. A trace that does not
     * satisfy the AIR, or one proveCheckpointed() rejects as
     * InvalidArgument (too short for FRI, say), is a user error
     * (fatal(), exit status 1); any other failure is an internal one
     * (panic).
     */
    AirProof prove(const std::vector<std::vector<Goldilocks>> &trace) const;

    /**
     * The prover's stage walk, checkpointing each stage (and each FRI
     * round) into @p store. Each stage's output is persisted as it
     * completes, sealed with a position-salted checksum; a rerun after
     * an interruption restores every valid checkpoint and recomputes
     * only from the first missing (or corrupted — a failed seal reads
     * as missing) stage onward. The produced proof is the same bytes
     * however many times the pipeline was interrupted and resumed.
     * The trace-commit stage commits every column, each under its own
     * key. A trace of the wrong shape, or one too short for FRI
     * (2^log_trace <= 2 * friFinalTerms), returns InvalidArgument.
     *
     * Checkpoint keys are namespaced by the AIR's name, its boundary
     * values and log_trace, so one store can serve many proof
     * instances without cross-talk.
     *
     * @param gate Optional per-stage interruption hook (see
     *     StageGate); consulted only before stages that actually run.
     * @param round_gate Optional per-FRI-round interruption hook,
     *     forwarded to the commit stages' round checkpointer.
     */
    Result<AirProof> proveCheckpointed(
        const std::vector<std::vector<Goldilocks>> &trace,
        CheckpointStore &store, const StageGate &gate = {},
        const FriRoundGate &round_gate = {}) const;

    /** Verify a proof against this AIR. */
    bool verify(const AirProof &proof) const;

    /** True iff the trace satisfies every constraint (prover check). */
    bool traceSatisfies(
        const std::vector<std::vector<Goldilocks>> &trace) const;

    const Air &air() const { return air_; }

  private:
    Air air_;
    StarkParams params_;
};

/** The Fibonacci AIR: columns (a, b), step (a,b) -> (b, a+b). */
Air fibonacciAir(Goldilocks a0, Goldilocks b0);

/** Honest Fibonacci trace of 2^log_rows rows. */
std::vector<std::vector<Goldilocks>> fibonacciTrace(Goldilocks a0,
                                                    Goldilocks b0,
                                                    unsigned log_rows);

} // namespace unintt

#endif // UNINTT_ZKP_AIR_HH
