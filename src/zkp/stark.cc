#include "zkp/stark.hh"

#include "field/field_traits.hh"
#include "ntt/radix2.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "zkp/serialize.hh"

namespace unintt {

namespace {

using F = Goldilocks;

/** The coset the LDEs live on (any nonsubgroup shift works). */
F
ldeShift()
{
    return F::multiplicativeGenerator();
}

/** Interpolate a coset codeword back to coefficients. */
std::vector<F>
cosetInterpolate(std::vector<F> codeword, F shift)
{
    nttInverseInPlace(codeword);
    F shift_inv = shift.inverse();
    F power = F::one();
    for (auto &v : codeword) {
        v *= power;
        power *= shift_inv;
    }
    return codeword;
}

/**
 * The checkpoint payload of a coefficient stage: one field vector of
 * a known size. Anything else — absent, sealed wrong, truncated,
 * wrong length — reads as a miss and the stage recomputes.
 */
std::optional<std::vector<F>>
loadCoeffs(CheckpointStore &store, unsigned stage,
           const std::string &key, size_t want)
{
    auto bytes = store.get(stage, key);
    if (!bytes)
        return std::nullopt;
    ByteReader r(*bytes);
    auto v = readFieldVector(r, want);
    if (!v || !r.exhausted() || v->size() != want)
        return std::nullopt;
    return v;
}

void
saveCoeffs(CheckpointStore &store, unsigned stage,
           const std::string &key, const std::vector<F> &coeffs)
{
    ByteWriter w;
    writeFieldVector(w, coeffs);
    store.put(stage, key, w.bytes());
}

/** Everything a completed commit stage hands downstream. */
struct CommitOut
{
    FriProof proof;
    /** The round-0 codeword (LDE evaluations on the coset). */
    std::vector<F> codeword;
    /** The round-0 Merkle tree, for the final spot-check openings. */
    std::optional<MerkleTree> tree;
};

/**
 * Run (or restore) one FRI commit stage. A valid checkpoint restores
 * the proof and codeword, rebuilds the round-0 tree, and replays the
 * stage's transcript schedule; otherwise the stage gate is consulted,
 * the prove runs with per-round checkpointing, and the completed
 * stage's payload supersedes its round sub-entries.
 */
Result<CommitOut>
commitStage(CheckpointStore &store, unsigned stage,
            const std::string &key, const std::string &name,
            const std::vector<F> &coeffs, const FriParams &fri,
            Transcript &transcript, size_t d, unsigned log_degree,
            const SquareStark::StageGate &gate,
            const FriRoundGate &round_gate)
{
    if (auto bytes = store.get(stage, key)) {
        ByteReader r(*bytes);
        auto p = readFriProof(r);
        auto code = readFieldVector(r, d);
        if (p && code && r.exhausted() && code->size() == d &&
            p->logDegreeBound == log_degree) {
            CommitOut out;
            out.proof = std::move(*p);
            out.codeword = std::move(*code);
            std::vector<std::vector<F>> leaves(out.codeword.size());
            for (size_t i = 0; i < out.codeword.size(); ++i)
                leaves[i] = {out.codeword[i]};
            out.tree.emplace(std::move(leaves));
            friReplayTranscript(out.proof, transcript);
            return out;
        }
        // Malformed payload: fall through and recompute.
    }

    if (gate) {
        Status s = gate(stage, name);
        if (!s.ok())
            return s;
    }
    StoreRoundCheckpointer ckpt(store, stage, key, round_gate);
    FriProverArtifacts art;
    Result<FriProof> r =
        friProveResumable(coeffs, fri, transcript, &art, ckpt);
    if (!r.ok())
        return r.status();

    CommitOut out;
    out.proof = std::move(r.value());
    out.codeword = std::move(art.codeword);
    out.tree = std::move(art.tree);
    ByteWriter w;
    writeFriProof(w, out.proof);
    writeFieldVector(w, out.codeword);
    store.put(stage, key, w.bytes());
    ckpt.dropRounds();
    return out;
}

} // namespace

SquareStark::SquareStark(StarkParams params) : params_(params)
{
    UNINTT_ASSERT(params_.logBlowup >= 2,
                  "degree-2 constraint needs blowup >= 4");
}

std::vector<F>
SquareStark::runMachine(F t0, size_t steps)
{
    std::vector<F> trace(steps + 1);
    trace[0] = t0;
    for (size_t i = 1; i <= steps; ++i)
        trace[i] = trace[i - 1] * trace[i - 1] + F::one();
    return trace;
}

StarkProof
SquareStark::prove(F t0, unsigned log_trace) const
{
    CheckpointStore store;
    Result<StarkProof> r = proveCheckpointed(t0, log_trace, store);
    if (!r.ok() && r.status().code() == StatusCode::InvalidArgument)
        fatal("%s", r.status().message().c_str());
    UNINTT_ASSERT(r.ok(), r.status().toString().c_str());
    return std::move(r.value());
}

Result<StarkProof>
SquareStark::proveCheckpointed(F t0, unsigned log_trace,
                               CheckpointStore &store,
                               const StageGate &gate,
                               const FriRoundGate &round_gate) const
{
    const size_t n = 1ULL << log_trace;
    if (n <= 2 * params_.friFinalTerms)
        return Status::error(StatusCode::InvalidArgument,
                             "trace too short for the FRI parameters");
    const size_t d = n << params_.logBlowup;
    const size_t step = d / n;
    const F shift = ldeShift();

    FriParams fri;
    fri.logBlowup = params_.logBlowup;
    fri.finalPolyTerms = params_.friFinalTerms;
    fri.numQueries = params_.numQueries;
    fri.cosetShift = shift;

    // Checkpoint keys are namespaced by the proof instance, and the
    // seal covers the key, so one store serves many (t0, log_trace)
    // instances without a stale entry ever crossing over.
    const std::string ns = "stark-" + std::to_string(t0.value()) +
                           "-" + std::to_string(log_trace) + "/";

    // A completed pipeline short-circuits the whole call.
    if (auto bytes = store.get(StageQueries, ns + "queries")) {
        auto cached = deserializeStarkProof(*bytes);
        if (cached && cached->logTrace == log_trace &&
            cached->publicStart == t0)
            return *cached;
    }

    StarkProof proof;
    proof.logTrace = log_trace;
    proof.publicStart = t0;

    Transcript transcript("unintt-stark-v1");
    transcript.absorb(t0);
    transcript.absorbU64(log_trace);

    // Stage 0: trace interpolation.
    std::vector<F> t_coeffs;
    if (auto restored =
            loadCoeffs(store, StageTraceLde, ns + "trace-lde", n)) {
        t_coeffs = std::move(*restored);
    } else {
        if (gate) {
            Status s = gate(StageTraceLde, "trace-lde");
            if (!s.ok())
                return s;
        }
        auto trace = runMachine(t0, n - 1);
        t_coeffs = trace;
        nttInverseInPlace(t_coeffs);
        saveCoeffs(store, StageTraceLde, ns + "trace-lde", t_coeffs);
    }

    // Stage 1: trace FRI commit.
    Result<CommitOut> t_commit = commitStage(
        store, StageTraceCommit, ns + "trace-commit", "trace-commit",
        t_coeffs, fri, transcript, d, log_trace, gate, round_gate);
    if (!t_commit.ok())
        return t_commit.status();
    proof.traceFri = t_commit.value().proof;
    const auto &t_code = t_commit.value().codeword;

    // Domain points x_i = shift * w_d^i (needed by both quotient
    // stages when they run fresh; cheap enough to build always).
    const F w_d = F::rootOfUnity(log2Exact(d));
    const F last_row = F::rootOfUnity(log_trace).inverse(); // g^(n-1)
    std::vector<F> xs(d);
    {
        F x = shift;
        for (size_t i = 0; i < d; ++i) {
            xs[i] = x;
            x *= w_d;
        }
    }

    // Stage 2: transition quotient.
    std::vector<F> q_coeffs;
    bool q_fresh = false;
    std::vector<F> q_code;
    if (auto restored =
            loadCoeffs(store, StageQuotient, ns + "quotient", n)) {
        q_coeffs = std::move(*restored);
    } else {
        if (gate) {
            Status s = gate(StageQuotient, "quotient");
            if (!s.ok())
                return s;
        }
        std::vector<F> zh(step);
        {
            F gamma_n = shift.pow(n);
            F w_step = w_d.pow(n); // order `step`
            F cur = gamma_n;
            for (size_t i = 0; i < step; ++i) {
                zh[i] = cur - F::one();
                UNINTT_ASSERT(!zh[i].isZero(),
                              "Z_H vanished on the coset");
                cur *= w_step;
            }
        }
        auto zh_inv = batchInverse(zh);
        q_code.resize(d);
        for (size_t i = 0; i < d; ++i) {
            F c = t_code[(i + step) % d] - t_code[i] * t_code[i] -
                  F::one();
            q_code[i] = c * (xs[i] - last_row) * zh_inv[i % step];
        }
        q_coeffs = cosetInterpolate(q_code, shift);
        for (size_t i = n; i < q_coeffs.size(); ++i)
            if (!q_coeffs[i].isZero())
                return Status::error(
                    StatusCode::DataCorruption,
                    "transition quotient exceeds the degree bound");
        q_coeffs.resize(n);
        q_fresh = true;
        saveCoeffs(store, StageQuotient, ns + "quotient", q_coeffs);
    }

    // Stage 3: quotient FRI commit.
    Result<CommitOut> q_commit = commitStage(
        store, StageQuotientCommit, ns + "quotient-commit",
        "quotient-commit", q_coeffs, fri, transcript, d, log_trace,
        gate, round_gate);
    if (!q_commit.ok())
        return q_commit.status();
    proof.quotientFri = q_commit.value().proof;
    if (q_fresh && !(q_commit.value().codeword == q_code))
        return Status::error(StatusCode::DataCorruption,
                             "quotient codeword mismatch (internal)");

    // Stage 4: boundary quotient B = (T - t0) / (x - 1).
    std::vector<F> b_coeffs;
    if (auto restored =
            loadCoeffs(store, StageBoundary, ns + "boundary", n)) {
        b_coeffs = std::move(*restored);
    } else {
        if (gate) {
            Status s = gate(StageBoundary, "boundary");
            if (!s.ok())
                return s;
        }
        std::vector<F> denom(d);
        for (size_t i = 0; i < d; ++i)
            denom[i] = xs[i] - F::one();
        auto denom_inv = batchInverse(denom);
        std::vector<F> b_code(d);
        for (size_t i = 0; i < d; ++i)
            b_code[i] = (t_code[i] - t0) * denom_inv[i];
        b_coeffs = cosetInterpolate(b_code, shift);
        for (size_t i = n; i < b_coeffs.size(); ++i)
            if (!b_coeffs[i].isZero())
                return Status::error(
                    StatusCode::DataCorruption,
                    "boundary quotient exceeds the degree bound");
        b_coeffs.resize(n);
        saveCoeffs(store, StageBoundary, ns + "boundary", b_coeffs);
    }

    // Stage 5: boundary FRI commit.
    Result<CommitOut> b_commit = commitStage(
        store, StageBoundaryCommit, ns + "boundary-commit",
        "boundary-commit", b_coeffs, fri, transcript, d, log_trace,
        gate, round_gate);
    if (!b_commit.ok())
        return b_commit.status();
    proof.boundaryFri = b_commit.value().proof;

    // Stage 6: spot checks tying the three commitments together.
    if (gate) {
        Status s = gate(StageQueries, "queries");
        if (!s.ok())
            return s;
    }
    for (unsigned q = 0; q < params_.numQueries; ++q) {
        size_t idx = transcript.challengeU64() % d;
        size_t next_idx = (idx + step) % d;
        StarkQuery query;
        query.traceCur = t_code[idx];
        query.traceNext = t_code[next_idx];
        query.quotient = q_commit.value().codeword[idx];
        query.boundary = b_commit.value().codeword[idx];
        query.traceCurPath = t_commit.value().tree->open(idx);
        query.traceNextPath = t_commit.value().tree->open(next_idx);
        query.quotientPath = q_commit.value().tree->open(idx);
        query.boundaryPath = b_commit.value().tree->open(idx);
        proof.queries.push_back(std::move(query));
    }
    store.put(StageQueries, ns + "queries", serializeStarkProof(proof));
    return proof;
}

bool
SquareStark::verify(const StarkProof &proof) const
{
    const size_t n = 1ULL << proof.logTrace;
    const size_t d = n << params_.logBlowup;
    const size_t step = d / n;
    const F shift = ldeShift();

    FriParams fri;
    fri.logBlowup = params_.logBlowup;
    fri.finalPolyTerms = params_.friFinalTerms;
    fri.numQueries = params_.numQueries;
    fri.cosetShift = shift;

    // All three commitments must claim the trace-length degree bound.
    if (proof.traceFri.logDegreeBound != proof.logTrace ||
        proof.quotientFri.logDegreeBound != proof.logTrace ||
        proof.boundaryFri.logDegreeBound != proof.logTrace)
        return false;
    if (proof.traceFri.roots.empty() || proof.quotientFri.roots.empty() ||
        proof.boundaryFri.roots.empty())
        return false;
    if (proof.queries.size() != params_.numQueries)
        return false;

    Transcript transcript("unintt-stark-v1");
    transcript.absorb(proof.publicStart);
    transcript.absorbU64(proof.logTrace);

    if (!friVerify(proof.traceFri, fri, transcript))
        return false;
    if (!friVerify(proof.quotientFri, fri, transcript))
        return false;
    if (!friVerify(proof.boundaryFri, fri, transcript))
        return false;

    const F w_d = F::rootOfUnity(log2Exact(d));
    const F last_row = F::rootOfUnity(proof.logTrace).inverse();
    const Digest &t_root = proof.traceFri.roots[0];
    const Digest &q_root = proof.quotientFri.roots[0];
    const Digest &b_root = proof.boundaryFri.roots[0];

    for (const auto &query : proof.queries) {
        size_t idx = transcript.challengeU64() % d;
        size_t next_idx = (idx + step) % d;

        if (query.traceCurPath.index != idx ||
            query.traceNextPath.index != next_idx ||
            query.quotientPath.index != idx ||
            query.boundaryPath.index != idx)
            return false;
        if (!MerkleTree::verify(t_root, query.traceCurPath,
                                {query.traceCur}) ||
            !MerkleTree::verify(t_root, query.traceNextPath,
                                {query.traceNext}) ||
            !MerkleTree::verify(q_root, query.quotientPath,
                                {query.quotient}) ||
            !MerkleTree::verify(b_root, query.boundaryPath,
                                {query.boundary}))
            return false;

        F x = shift * w_d.pow(idx);
        // Transition: (T(gx) - T(x)^2 - 1)(x - last) == Q(x) Z_H(x).
        F c = query.traceNext - query.traceCur * query.traceCur -
              F::one();
        F zh = x.pow(n) - F::one();
        if (!(c * (x - last_row) == query.quotient * zh))
            return false;
        // Boundary: T(x) - t0 == B(x) (x - 1).
        if (!(query.traceCur - proof.publicStart ==
              query.boundary * (x - F::one())))
            return false;
    }
    return true;
}

} // namespace unintt
