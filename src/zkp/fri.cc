#include "zkp/fri.hh"

#include "field/field_traits.hh"
#include "ntt/radix2.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace unintt {

namespace {

using F = Goldilocks;

/** Absorb a digest into the transcript. */
void
absorbDigest(Transcript &t, const Digest &d)
{
    for (const auto &v : d)
        t.absorb(v);
}

/** The folding rule; x_inv is the inverse of the evaluation point. */
F
foldPair(F lo, F hi, F challenge, F x_inv, F two_inv)
{
    return (lo + hi) * two_inv + challenge * (lo - hi) * two_inv * x_inv;
}

/** Horner evaluation of the final polynomial. */
F
evalPoly(const std::vector<F> &coeffs, F x)
{
    F acc = F::zero();
    for (size_t i = coeffs.size(); i-- > 0;)
        acc = acc * x + coeffs[i];
    return acc;
}

/**
 * Shared prover: friProve with ckpt == nullptr, friProveResumable
 * otherwise. The transcript schedule and every computed value are
 * identical in both modes (restored rounds replace recomputation with
 * the stored state, which a prior identical run produced), so resumed
 * proofs serialize byte-identically.
 */
Result<FriProof>
friProveImpl(const std::vector<F> &coeffs, const FriParams &params,
             Transcript &transcript, FriProverArtifacts *artifacts,
             FriRoundCheckpointer *ckpt)
{
    UNINTT_ASSERT(isPow2(coeffs.size()) && !coeffs.empty(),
                  "coefficient count must be a power of two");
    const unsigned log_degree = log2Exact(coeffs.size());
    const F two_inv = F::fromU64(2).inverse();
    const size_t d0 = coeffs.size() << params.logBlowup;

    FriProof proof;
    proof.logDegreeBound = log_degree;

    // Longest consecutive prefix of stored round codewords. Round r's
    // state must be exactly d0 >> r elements; anything else reads as
    // a miss from that round on.
    std::vector<std::vector<F>> restored;
    if (ckpt != nullptr) {
        for (unsigned r = 0;; ++r) {
            auto cw = ckpt->loadRound(r);
            if (!cw || cw->size() != (d0 >> r))
                break;
            restored.push_back(std::move(*cw));
        }
    }

    std::vector<F> codeword;
    if (!restored.empty()) {
        codeword = restored[0];
    } else {
        // Reed-Solomon codeword: evaluate on the (possibly coset-
        // shifted) blown-up domain.
        codeword = coeffs;
        codeword.resize(d0, F::zero());
        scaleByPowers(codeword.data(), coeffs.size(), F::one(),
                      params.cosetShift);
        nttForwardInPlace(codeword);
    }
    F shift = params.cosetShift;

    // Commit/fold phase.
    std::vector<MerkleTree> trees;
    std::vector<std::vector<F>> codewords;
    std::vector<F> challenges;
    unsigned r = 0;
    while ((codeword.size() >> params.logBlowup) >
           params.finalPolyTerms) {
        if (ckpt != nullptr) {
            Status gate = ckpt->roundGate(r);
            if (!gate.ok())
                return gate; // saved rounds persist for the resume
            if (r >= restored.size())
                ckpt->saveRound(r, codeword);
        }
        std::vector<std::vector<F>> leaves(codeword.size());
        for (size_t i = 0; i < codeword.size(); ++i)
            leaves[i] = {codeword[i]};
        trees.emplace_back(std::move(leaves));
        proof.roots.push_back(trees.back().root());
        absorbDigest(transcript, trees.back().root());
        F c = transcript.challengeGoldilocks();
        challenges.push_back(c);
        codewords.push_back(codeword);

        if (r + 1 < restored.size()) {
            // The fold's result is already on record from the
            // interrupted run.
            codeword = restored[r + 1];
        } else {
            // Fold onto the squared domain (the coset shift squares
            // too).
            const size_t half = codeword.size() / 2;
            F w_inv =
                F::rootOfUnity(log2Exact(codeword.size())).inverse();
            std::vector<F> next(half);
            F x_inv = shift.inverse();
            for (size_t j = 0; j < half; ++j) {
                next[j] = foldPair(codeword[j], codeword[j + half], c,
                                   x_inv, two_inv);
                x_inv *= w_inv;
            }
            codeword = std::move(next);
        }
        shift *= shift;
        ++r;
    }

    // Final polynomial in the clear (undo the residual coset shift).
    std::vector<F> final_coeffs = codeword;
    nttInverseInPlace(final_coeffs);
    scaleByPowers(final_coeffs.data(), final_coeffs.size(), F::one(),
                  shift.inverse());
    for (size_t i = params.finalPolyTerms; i < final_coeffs.size(); ++i)
        UNINTT_ASSERT(final_coeffs[i].isZero(),
                      "honest fold left a high coefficient");
    final_coeffs.resize(
        std::min<size_t>(params.finalPolyTerms, final_coeffs.size()));
    proof.finalPoly = final_coeffs;
    for (const auto &v : proof.finalPoly)
        transcript.absorb(v);

    // Query phase: spot-check chains at transcript-derived positions.
    for (unsigned q = 0; q < params.numQueries; ++q) {
        size_t j = transcript.challengeU64() % d0;
        FriQuery query;
        for (size_t r = 0; r < codewords.size(); ++r) {
            const size_t half = codewords[r].size() / 2;
            j %= half;
            FriQueryRound round;
            round.lo = codewords[r][j];
            round.hi = codewords[r][j + half];
            round.loPath = trees[r].open(j);
            round.hiPath = trees[r].open(j + half);
            query.rounds.push_back(round);
        }
        proof.queries.push_back(std::move(query));
    }

    if (artifacts && !codewords.empty()) {
        artifacts->codeword = codewords[0];
        artifacts->tree = trees[0];
    }
    return proof;
}

} // namespace

FriProof
friProve(const std::vector<F> &coeffs, const FriParams &params,
         Transcript &transcript, FriProverArtifacts *artifacts)
{
    Result<FriProof> r =
        friProveImpl(coeffs, params, transcript, artifacts, nullptr);
    UNINTT_ASSERT(r.ok(), "ungated prove cannot fail");
    return std::move(r.value());
}

Result<FriProof>
friProveResumable(const std::vector<F> &coeffs, const FriParams &params,
                  Transcript &transcript, FriProverArtifacts *artifacts,
                  FriRoundCheckpointer &ckpt)
{
    return friProveImpl(coeffs, params, transcript, artifacts, &ckpt);
}

void
friReplayTranscript(const FriProof &proof, Transcript &transcript)
{
    for (const auto &root : proof.roots) {
        absorbDigest(transcript, root);
        (void)transcript.challengeGoldilocks();
    }
    for (const auto &v : proof.finalPoly)
        transcript.absorb(v);
    for (size_t q = 0; q < proof.queries.size(); ++q)
        (void)transcript.challengeU64();
}

bool
friVerify(const FriProof &proof, const FriParams &params,
          Transcript &transcript)
{
    const F two_inv = F::fromU64(2).inverse();
    const size_t d0 = 1ULL << (proof.logDegreeBound + params.logBlowup);

    // Degree-bound structure checks.
    if (proof.finalPoly.size() > params.finalPolyTerms)
        return false;
    unsigned expected_rounds = 0;
    {
        size_t bound = 1ULL << proof.logDegreeBound;
        while (bound > params.finalPolyTerms) {
            bound /= 2;
            ++expected_rounds;
        }
    }
    if (proof.roots.size() != expected_rounds)
        return false;
    if (proof.queries.size() != params.numQueries)
        return false;

    // Replay the transcript: challenges then query positions.
    std::vector<F> challenges;
    for (const auto &root : proof.roots) {
        absorbDigest(transcript, root);
        challenges.push_back(transcript.challengeGoldilocks());
    }
    for (const auto &v : proof.finalPoly)
        transcript.absorb(v);

    const size_t final_size = d0 >> proof.roots.size();
    const F w_final = final_size > 1
                          ? F::rootOfUnity(log2Exact(final_size))
                          : F::one();
    // Per-round coset shifts: shift_r = cosetShift^(2^r).
    std::vector<F> shifts(proof.roots.size() + 1);
    shifts[0] = params.cosetShift;
    for (size_t r = 1; r < shifts.size(); ++r)
        shifts[r] = shifts[r - 1] * shifts[r - 1];

    for (const auto &query : proof.queries) {
        size_t j = transcript.challengeU64() % d0;
        if (query.rounds.size() != proof.roots.size())
            return false;

        bool have_prev = false;
        F prev;
        for (size_t r = 0; r < query.rounds.size(); ++r) {
            const size_t d_r = d0 >> r;
            const size_t half = d_r / 2;
            const size_t jl = j % half;
            const auto &round = query.rounds[r];

            // Openings must authenticate at the expected positions.
            if (round.loPath.index != jl ||
                round.hiPath.index != jl + half)
                return false;
            if (!MerkleTree::verify(proof.roots[r], round.loPath,
                                    {round.lo}) ||
                !MerkleTree::verify(proof.roots[r], round.hiPath,
                                    {round.hi}))
                return false;

            // The previous fold's output must reappear here.
            if (have_prev) {
                F here = j < half ? round.lo : round.hi;
                if (!(here == prev))
                    return false;
            }

            F x_inv = (shifts[r] *
                       F::rootOfUnity(log2Exact(d_r)).pow(jl))
                          .inverse();
            prev = foldPair(round.lo, round.hi, challenges[r], x_inv,
                            two_inv);
            have_prev = true;
            j = jl;
        }

        // Final consistency against the cleartext polynomial.
        if (have_prev) {
            F x = shifts[proof.roots.size()] * w_final.pow(j);
            if (!(evalPoly(proof.finalPoly, x) == prev))
                return false;
        }
    }
    return true;
}

} // namespace unintt
