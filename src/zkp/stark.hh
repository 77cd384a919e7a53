/**
 * @file
 * The square-and-increment machine,
 *
 *   t[0] = public start,   t[i+1] = t[i]^2 + 1,
 *
 * as an AIR (squareAir: one column, one degree-2 transition, one
 * boundary), and SquareStark, its front over the STARK engine of
 * zkp/air.hh. The front proves and verifies through AirStark's one
 * stage walk and verifier and keeps the machine's own proof shape,
 * StarkProof: one trace column, so scalar openings instead of
 * per-column vectors. The AIR's name "stark" gives it the transcript
 * label unintt-stark-v1 and the checkpoint keys "stark-<t0>-<log>/…":
 * the pinned proof bytes (SerializeStark.ProofBytesArePinned) and the
 * chaos soak's seeded checkpoint picks depend on both.
 */

#ifndef UNINTT_ZKP_STARK_HH
#define UNINTT_ZKP_STARK_HH

#include <string>
#include <vector>

#include "field/goldilocks.hh"
#include "util/status.hh"
#include "zkp/air.hh"
#include "zkp/checkpoint.hh"

namespace unintt {

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

/** The square-and-increment machine started at @p t0, as an AIR. */
Air squareAir(Goldilocks t0);

/** Its honest trace of 2^log_rows rows (one column). */
std::vector<std::vector<Goldilocks>> squareTrace(Goldilocks t0,
                                                 unsigned log_rows);

/** A square-machine proof in the engine's shape, and back. */
AirProof toAirProof(const StarkProof &proof);
StarkProof toStarkProof(AirProof proof);

/** Prover/verifier front for the square-and-increment AIR. */
class SquareStark
{
  public:
    explicit SquareStark(StarkParams params = StarkParams{});

    /**
     * Prove that the machine started at @p t0 and ran 2^log_trace - 1
     * steps of t <- t^2 + 1: AirStark::prove on squareAir(t0), so
     * every proof comes from the same stage walk. log_trace must
     * exceed log2(friFinalTerms) + 1 so FRI has at least one round; a
     * shorter trace is a user error (fatal(), exit status 1), and any
     * other failure is an internal one (panic).
     */
    StarkProof prove(Goldilocks t0, unsigned log_trace) const;

    /** AirStark's stage gate (see AirStark::StageGate). */
    using StageGate = AirStark::StageGate;

    /** Pipeline stage indices of proveCheckpointed, in order. */
    using Stage = AirStark::Stage;
    using enum AirStark::Stage;

    /**
     * AirStark::proveCheckpointed on squareAir(t0): the stage walk,
     * checkpointing each stage (and each FRI round) into @p store, so
     * a rerun after an interruption recomputes only from the first
     * missing or corrupted stage and yields the same bytes. A trace
     * too short for FRI returns InvalidArgument. Checkpoint keys are
     * namespaced by (t0, log_trace).
     */
    Result<StarkProof> proveCheckpointed(
        Goldilocks t0, unsigned log_trace, CheckpointStore &store,
        const StageGate &gate = {},
        const FriRoundGate &round_gate = {}) const;

    /** Verify a proof: AirStark::verify on squareAir(publicStart). */
    bool verify(const StarkProof &proof) const;

    /** The (honest) trace for cross-checking in tests. */
    static std::vector<Goldilocks> runMachine(Goldilocks t0, size_t steps);

  private:
    StarkParams params_;
};

} // namespace unintt

#endif // UNINTT_ZKP_STARK_HH
