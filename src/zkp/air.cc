#include "zkp/air.hh"

#include "field/field_traits.hh"
#include "ntt/radix2.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "zkp/serialize.hh"

namespace unintt {

namespace {

using F = Goldilocks;
using Trace = std::vector<std::vector<F>>;

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
    scaleByPowers(codeword.data(), codeword.size(), F::one(),
                  shift.inverse());
    return codeword;
}

FriParams
friParams(const StarkParams &params)
{
    FriParams fri;
    fri.logBlowup = params.logBlowup;
    fri.finalPolyTerms = params.friFinalTerms;
    fri.numQueries = params.numQueries;
    fri.cosetShift = ldeShift();
    return fri;
}

/**
 * The transcript both sides start from: the AIR's label, then the
 * public inputs — the boundary values (the AIR fixes their columns)
 * and the trace length.
 */
Transcript
openTranscript(const Air &air, unsigned log_trace)
{
    Transcript t("unintt-" + air.name + "-v1");
    for (const auto &b : air.boundaries)
        t.absorb(b.value);
    t.absorbU64(log_trace);
    return t;
}

/** True iff @p echoed are the AIR's boundary columns and values. */
bool
echoesBoundaries(const Air &air, const std::vector<Air::Boundary> &echoed)
{
    if (echoed.size() != air.boundaries.size())
        return false;
    for (size_t j = 0; j < echoed.size(); ++j)
        if (echoed[j].column != air.boundaries[j].column ||
            !(echoed[j].value == air.boundaries[j].value))
            return false;
    return true;
}

/**
 * Challenges combining @p terms constraint terms into one numerator:
 * one per term, and none for a lone term, which is its own numerator.
 */
std::vector<F>
combinationChallenges(Transcript &t, size_t terms)
{
    std::vector<F> c;
    if (terms >= 2)
        for (size_t i = 0; i < terms; ++i)
            c.push_back(t.challengeGoldilocks());
    return c;
}

/** sum_i challenges[i] * term(i), or the lone term (zero for none). */
template <typename Term>
F
combine(const std::vector<F> &challenges, size_t terms, Term term)
{
    if (challenges.empty())
        return terms == 0 ? F::zero() : term(0);
    F acc = F::zero();
    for (size_t i = 0; i < terms; ++i)
        acc += challenges[i] * term(i);
    return acc;
}

/** The transition numerator C at (row(x), row(gx)). */
F
transitionNumerator(const Air &air, const std::vector<F> &alphas,
                    const std::vector<F> &cur, const std::vector<F> &next)
{
    return combine(alphas, air.transitions.size(), [&](size_t t) {
        return air.transitions[t](cur, next);
    });
}

/** The boundary numerator D at row(x). */
F
boundaryNumerator(const Air &air, const std::vector<F> &betas,
                  const std::vector<F> &cur)
{
    return combine(betas, air.boundaries.size(), [&](size_t j) {
        const auto &b = air.boundaries[j];
        return cur[b.column] - b.value;
    });
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
 * What every stage of one proof instance's walk shares: the store and
 * gates, the instance's key namespace, the FRI parameters, the sizes
 * and the Fiat-Shamir transcript the stages advance in order.
 */
struct Walk
{
    CheckpointStore &store;
    const AirStark::StageGate &gate;
    const FriRoundGate &roundGate;
    /** Prefix of every checkpoint key of this instance. */
    std::string ns;
    FriParams fri;
    /** Trace length and LDE size. */
    size_t n;
    size_t d;
    Transcript transcript;

    /** The stage gate, consulted only before a stage that runs. */
    Status
    enter(unsigned stage, const std::string &name) const
    {
        return gate ? gate(stage, name) : Status();
    }

    /**
     * The checkpoint payload of a coefficient stage: @p count field
     * vectors of n elements. Anything else — absent, sealed wrong,
     * truncated, wrong lengths — reads as a miss and the stage
     * recomputes.
     */
    std::optional<std::vector<std::vector<F>>>
    load(unsigned stage, const std::string &key, size_t count)
    {
        auto bytes = store.get(stage, ns + key);
        if (!bytes)
            return std::nullopt;
        ByteReader r(*bytes);
        std::vector<std::vector<F>> out;
        for (size_t i = 0; i < count; ++i) {
            auto v = readFieldVector(r, n);
            if (!v || v->size() != n)
                return std::nullopt;
            out.push_back(std::move(*v));
        }
        if (!r.exhausted())
            return std::nullopt;
        return out;
    }

    void
    save(unsigned stage, const std::string &key,
         const std::vector<std::vector<F>> &coeffs)
    {
        ByteWriter w;
        for (const auto &v : coeffs)
            writeFieldVector(w, v);
        store.put(stage, ns + key, w.bytes());
    }

    /**
     * Run (or restore) one FRI commit. A valid checkpoint restores the
     * proof and codeword, rebuilds the round-0 tree, and replays the
     * commit's transcript schedule; otherwise the stage gate is
     * consulted, the prove runs with per-round checkpointing, and the
     * completed commit's payload supersedes its round sub-entries.
     */
    Result<CommitOut>
    commit(unsigned stage, const std::string &key, const std::string &name,
           const std::vector<F> &coeffs)
    {
        if (auto bytes = store.get(stage, ns + key)) {
            ByteReader r(*bytes);
            auto p = readFriProof(r);
            auto code = readFieldVector(r, d);
            if (p && code && r.exhausted() && code->size() == d &&
                p->logDegreeBound == log2Exact(n)) {
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

        if (Status s = enter(stage, name); !s.ok())
            return s;
        StoreRoundCheckpointer ckpt(store, stage, ns + key, roundGate);
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
        store.put(stage, ns + key, w.bytes());
        ckpt.dropRounds();
        return out;
    }

    /**
     * A quotient stage and, at the next index, its commit. A fresh
     * quotient interpolates the coset codeword @p code returns, must
     * fit the trace-length degree bound, and must reappear as the
     * commit's codeword; a restored one skips @p code.
     */
    Result<CommitOut>
    quotient(unsigned stage, const std::string &name,
             const std::function<std::vector<F>()> &code)
    {
        std::vector<F> coeffs, fresh;
        if (auto restored = load(stage, name, 1)) {
            coeffs = std::move(restored->front());
        } else {
            if (Status s = enter(stage, name); !s.ok())
                return s;
            fresh = code();
            coeffs = cosetInterpolate(fresh, fri.cosetShift);
            for (size_t i = n; i < coeffs.size(); ++i)
                if (!coeffs[i].isZero())
                    return Status::error(StatusCode::DataCorruption,
                                         "stage '" + name +
                                             "': quotient exceeds the "
                                             "degree bound");
            coeffs.resize(n);
            save(stage, name, {coeffs});
        }
        Result<CommitOut> out =
            commit(stage + 1, name + "-commit", name + "-commit", coeffs);
        if (out.ok() && !fresh.empty() && !(out.value().codeword == fresh))
            return Status::error(StatusCode::DataCorruption,
                                 "stage '" + name +
                                     "': codeword mismatch (internal)");
        return out;
    }
};

} // namespace

Air
fibonacciAir(F a0, F b0)
{
    Air air;
    air.name = "fibonacci";
    air.columns = 2;
    air.constraintDegree = 1;
    air.transitions = {
        [](const std::vector<F> &cur, const std::vector<F> &next) {
            return next[0] - cur[1]; // a' = b
        },
        [](const std::vector<F> &cur, const std::vector<F> &next) {
            return next[1] - cur[0] - cur[1]; // b' = a + b
        },
    };
    air.boundaries = {{0, a0}, {1, b0}};
    return air;
}

Trace
fibonacciTrace(F a0, F b0, unsigned log_rows)
{
    size_t n = 1ULL << log_rows;
    Trace trace(2, std::vector<F>(n));
    trace[0][0] = a0;
    trace[1][0] = b0;
    for (size_t i = 1; i < n; ++i) {
        trace[0][i] = trace[1][i - 1];
        trace[1][i] = trace[0][i - 1] + trace[1][i - 1];
    }
    return trace;
}

AirStark::AirStark(Air air, StarkParams params)
    : air_(std::move(air)), params_(params)
{
    UNINTT_ASSERT(air_.columns >= 1 && !air_.transitions.empty(),
                  "AIR needs at least one column and one transition");
    for (const auto &b : air_.boundaries)
        UNINTT_ASSERT(b.column < air_.columns,
                      "boundary column out of range");
    UNINTT_ASSERT((1u << params_.logBlowup) > air_.constraintDegree,
                  "blowup must exceed the constraint degree");
}

bool
AirStark::traceSatisfies(const Trace &trace) const
{
    if (trace.size() != air_.columns || trace.empty())
        return false;
    size_t n = trace[0].size();
    for (const auto &col : trace)
        if (col.size() != n)
            return false;
    for (const auto &b : air_.boundaries)
        if (!(trace[b.column][0] == b.value))
            return false;

    std::vector<F> cur(air_.columns), next(air_.columns);
    for (size_t i = 0; i + 1 < n; ++i) {
        for (unsigned c = 0; c < air_.columns; ++c) {
            cur[c] = trace[c][i];
            next[c] = trace[c][i + 1];
        }
        for (const auto &t : air_.transitions)
            if (!t(cur, next).isZero())
                return false;
    }
    return true;
}

AirProof
AirStark::prove(const Trace &trace) const
{
    if (!traceSatisfies(trace))
        fatal("trace does not satisfy the AIR '%s'", air_.name.c_str());
    CheckpointStore store;
    Result<AirProof> r = proveCheckpointed(trace, store);
    if (!r.ok() && r.status().code() == StatusCode::InvalidArgument)
        fatal("%s", r.status().message().c_str());
    UNINTT_ASSERT(r.ok(), r.status().toString().c_str());
    return std::move(r.value());
}

Result<AirProof>
AirStark::proveCheckpointed(const Trace &trace, CheckpointStore &store,
                            const StageGate &gate,
                            const FriRoundGate &round_gate) const
{
    const unsigned cols = air_.columns;
    const size_t n = trace.empty() ? 0 : trace[0].size();
    bool shaped = trace.size() == cols && isPow2(n);
    for (const auto &col : trace)
        shaped = shaped && col.size() == n;
    if (!shaped)
        return Status::error(StatusCode::InvalidArgument,
                             "trace must be " + std::to_string(cols) +
                                 " columns of one power-of-two length");
    if (n <= 2 * params_.friFinalTerms)
        return Status::error(StatusCode::InvalidArgument,
                             "trace too short for the FRI parameters");
    const unsigned log_trace = log2Exact(n);
    const size_t d = n << params_.logBlowup;
    const size_t step = d / n;
    const F shift = ldeShift();

    // Checkpoint keys are namespaced by the proof instance, and the
    // seal covers the key, so one store serves many instances without
    // a stale entry ever crossing over.
    std::string ns = air_.name;
    for (const auto &b : air_.boundaries)
        ns += "-" + std::to_string(b.value.value());
    ns += "-" + std::to_string(log_trace) + "/";

    // A completed pipeline short-circuits the whole call.
    if (auto bytes = store.get(StageQueries, ns + "queries")) {
        ByteReader r(*bytes);
        auto cached = readAirProof(r, air_);
        if (cached && r.exhausted() && cached->logTrace == log_trace &&
            echoesBoundaries(air_, cached->boundaries))
            return *cached;
    }

    Walk walk{store, gate, round_gate, ns, friParams(params_), n, d,
              openTranscript(air_, log_trace)};
    AirProof proof;
    proof.logTrace = log_trace;
    proof.boundaries = air_.boundaries;

    // Stage 0: trace interpolation, every column.
    Trace t_coeffs;
    if (auto restored = walk.load(StageTraceLde, "trace-lde", cols)) {
        t_coeffs = std::move(*restored);
    } else {
        if (Status s = walk.enter(StageTraceLde, "trace-lde"); !s.ok())
            return s;
        t_coeffs = trace;
        for (auto &col : t_coeffs)
            nttInverseInPlace(col);
        walk.save(StageTraceLde, "trace-lde", t_coeffs);
    }

    // Stage 1: one FRI commit per column; column 0 keeps the bare key.
    std::vector<CommitOut> t_commits;
    for (unsigned c = 0; c < cols; ++c) {
        const std::string key =
            c == 0 ? "trace-commit" : "trace-commit-" + std::to_string(c);
        Result<CommitOut> r = walk.commit(StageTraceCommit, key,
                                          "trace-commit", t_coeffs[c]);
        if (!r.ok())
            return r.status();
        proof.columnFris.push_back(r.value().proof);
        t_commits.push_back(std::move(r.value()));
    }

    // Combination challenges, drawn once the columns are committed.
    const std::vector<F> alphas =
        combinationChallenges(walk.transcript, air_.transitions.size());
    const std::vector<F> betas =
        combinationChallenges(walk.transcript, air_.boundaries.size());

    // Domain points x_i = shift * w_d^i (needed by both quotient
    // stages when they run fresh; cheap enough to build always), and
    // the committed row at point i.
    const F w_d = F::rootOfUnity(log2Exact(d));
    std::vector<F> xs(d);
    {
        F x = shift;
        for (size_t i = 0; i < d; ++i) {
            xs[i] = x;
            x *= w_d;
        }
    }
    auto row = [&](size_t i, std::vector<F> &out) {
        for (unsigned c = 0; c < cols; ++c)
            out[c] = t_commits[c].codeword[i];
    };

    // Stages 2-3: the transition quotient and its commit.
    Result<CommitOut> q_commit = walk.quotient(StageQuotient, "quotient", [&] {
        std::vector<F> zh(step);
        {
            F cur = shift.pow(n);
            F w_step = w_d.pow(n); // order `step`
            for (size_t i = 0; i < step; ++i) {
                zh[i] = cur - F::one();
                UNINTT_ASSERT(!zh[i].isZero(), "Z_H vanished on the coset");
                cur *= w_step;
            }
        }
        const auto zh_inv = batchInverse(zh);
        const F last_row = F::rootOfUnity(log_trace).inverse(); // g^(n-1)
        std::vector<F> code(d), cur(cols), next(cols);
        for (size_t i = 0; i < d; ++i) {
            row(i, cur);
            row((i + step) % d, next);
            code[i] = transitionNumerator(air_, alphas, cur, next) *
                      (xs[i] - last_row) * zh_inv[i % step];
        }
        return code;
    });
    if (!q_commit.ok())
        return q_commit.status();
    proof.quotientFri = q_commit.value().proof;

    // Stages 4-5: the boundary quotient and its commit.
    Result<CommitOut> b_commit = walk.quotient(StageBoundary, "boundary", [&] {
        std::vector<F> denom(d);
        for (size_t i = 0; i < d; ++i)
            denom[i] = xs[i] - F::one();
        const auto denom_inv = batchInverse(denom);
        std::vector<F> code(d), cur(cols);
        for (size_t i = 0; i < d; ++i) {
            row(i, cur);
            code[i] = boundaryNumerator(air_, betas, cur) * denom_inv[i];
        }
        return code;
    });
    if (!b_commit.ok())
        return b_commit.status();
    proof.boundaryFri = b_commit.value().proof;

    // Stage 6: spot checks tying the commitments together.
    if (Status s = walk.enter(StageQueries, "queries"); !s.ok())
        return s;
    const CommitOut &q_out = q_commit.value();
    const CommitOut &b_out = b_commit.value();
    for (unsigned q = 0; q < params_.numQueries; ++q) {
        const size_t idx = walk.transcript.challengeU64() % d;
        const size_t next_idx = (idx + step) % d;
        AirProof::Query query;
        for (const CommitOut &col : t_commits) {
            query.cur.push_back(col.codeword[idx]);
            query.next.push_back(col.codeword[next_idx]);
            query.curPaths.push_back(col.tree->open(idx));
            query.nextPaths.push_back(col.tree->open(next_idx));
        }
        query.quotient = q_out.codeword[idx];
        query.boundary = b_out.codeword[idx];
        query.quotientPath = q_out.tree->open(idx);
        query.boundaryPath = b_out.tree->open(idx);
        proof.queries.push_back(std::move(query));
    }
    ByteWriter w;
    writeAirProof(w, proof);
    store.put(StageQueries, ns + "queries", w.bytes());
    return proof;
}

bool
AirStark::verify(const AirProof &proof) const
{
    const unsigned cols = air_.columns;
    // Shape: a commitment per column, each claiming the trace-length
    // degree bound, and public inputs that are the AIR's.
    if (proof.columnFris.size() != cols ||
        !echoesBoundaries(air_, proof.boundaries) ||
        proof.queries.size() != params_.numQueries ||
        proof.logTrace + params_.logBlowup > F::kTwoAdicity)
        return false;
    auto bounded = [&](const FriProof &f) {
        return f.logDegreeBound == proof.logTrace && !f.roots.empty();
    };
    for (const auto &f : proof.columnFris)
        if (!bounded(f))
            return false;
    if (!bounded(proof.quotientFri) || !bounded(proof.boundaryFri))
        return false;

    const size_t n = 1ULL << proof.logTrace;
    const size_t d = n << params_.logBlowup;
    const size_t step = d / n;
    const FriParams fri = friParams(params_);

    Transcript transcript = openTranscript(air_, proof.logTrace);
    for (const auto &f : proof.columnFris)
        if (!friVerify(f, fri, transcript))
            return false;
    const std::vector<F> alphas =
        combinationChallenges(transcript, air_.transitions.size());
    const std::vector<F> betas =
        combinationChallenges(transcript, air_.boundaries.size());
    if (!friVerify(proof.quotientFri, fri, transcript) ||
        !friVerify(proof.boundaryFri, fri, transcript))
        return false;

    const F w_d = F::rootOfUnity(log2Exact(d));
    const F last_row = F::rootOfUnity(proof.logTrace).inverse();
    for (const auto &query : proof.queries) {
        const size_t idx = transcript.challengeU64() % d;
        const size_t next_idx = (idx + step) % d;

        if (query.cur.size() != cols || query.next.size() != cols ||
            query.curPaths.size() != cols ||
            query.nextPaths.size() != cols)
            return false;
        for (unsigned c = 0; c < cols; ++c) {
            const Digest &root = proof.columnFris[c].roots[0];
            if (query.curPaths[c].index != idx ||
                query.nextPaths[c].index != next_idx ||
                !MerkleTree::verify(root, query.curPaths[c],
                                    {query.cur[c]}) ||
                !MerkleTree::verify(root, query.nextPaths[c],
                                    {query.next[c]}))
                return false;
        }
        if (query.quotientPath.index != idx ||
            query.boundaryPath.index != idx ||
            !MerkleTree::verify(proof.quotientFri.roots[0],
                                query.quotientPath, {query.quotient}) ||
            !MerkleTree::verify(proof.boundaryFri.roots[0],
                                query.boundaryPath, {query.boundary}))
            return false;

        const F x = fri.cosetShift * w_d.pow(idx);
        // Transition: C(row(x), row(gx)) (x - last) == Q(x) Z_H(x).
        const F num =
            transitionNumerator(air_, alphas, query.cur, query.next);
        const F zh = x.pow(n) - F::one();
        if (!(num * (x - last_row) == query.quotient * zh))
            return false;
        // Boundary: D(row(x)) == B(x) (x - 1).
        if (!(boundaryNumerator(air_, betas, query.cur) ==
              query.boundary * (x - F::one())))
            return false;
    }
    return true;
}

} // namespace unintt
