/**
 * @file
 * Randomized output verification: checking k random output positions
 * against a direct evaluation of the input costs k*n multiply-adds (no
 * second transform), and catches a single corrupted output with
 * probability k/n and systematic corruptions (a wrong twiddle table, a
 * mis-routed exchange) almost surely. The multiply-adds run as one
 * lane-parallel pass over the coefficients (shards read in place):
 * blocks on the host pool evaluate all k points at once through the
 * kernel table's hornerSpan, and their partials, shifted to their
 * offsets, are summed in block order. Exact field arithmetic makes
 * every value and verdict independent of the table, threads and
 * sharding. The seed has no default: a fixed one would sample the same
 * positions on every call.
 */

#ifndef UNINTT_UNINTT_VERIFY_HH
#define UNINTT_UNINTT_VERIFY_HH

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "field/dispatch.hh"
#include "field/field_traits.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace unintt {

/** A sequence stored as consecutive parts (shards, or one vector). */
template <typename F>
using SpanList = std::vector<std::span<const F>>;

/**
 * The one spot check. @p coef holds a polynomial's natural-order
 * coefficients, @p evals its claimed evaluations in bit-reversed order
 * (position bitReverse(k) holds P(shift * w^k)). Draws @p checks
 * positions k in Rng(@p seed).below(n) order, evaluates P at all of
 * them on up to @p lanes pool lanes, and returns true iff all match.
 */
template <NttField F>
bool
spotCheck(const SpanList<F> &coef, const SpanList<F> &evals, F shift,
          unsigned checks, uint64_t seed,
          const FieldKernels<F> &fk = fieldKernels<F>(),
          unsigned lanes = 0)
{
    constexpr size_t kBlock = size_t{1} << 16;
    std::vector<std::pair<std::span<const F>, uint64_t>> blocks;
    uint64_t n = 0, evals_n = 0;
    for (const std::span<const F> &part : coef) {
        for (size_t b = 0; b < part.size(); b += kBlock)
            blocks.emplace_back(
                part.subspan(b, std::min(kBlock, part.size() - b)), n + b);
        n += part.size();
    }
    for (const std::span<const F> &part : evals)
        evals_n += part.size();
    UNINTT_ASSERT(n == evals_n, "size mismatch");
    UNINTT_ASSERT(isPow2(n), "size must be a power of two");
    const unsigned log_n = log2Exact(n);
    const F w = F::rootOfUnity(log_n);
    Rng rng(seed);
    std::vector<uint64_t> pos(checks);
    std::vector<F> x(checks);
    for (unsigned c = 0; c < checks; ++c) {
        pos[c] = rng.below(n);
        x[c] = shift * w.pow(pos[c]);
    }
    std::vector<F> partial(blocks.size() * checks);
    hostParallelFor(blocks.size(), kBlock * checks, lanes, [&](size_t b) {
        const auto &[span, offset] = blocks[b];
        F *out = partial.data() + b * checks;
        fk.hornerSpan(span.data(), span.size(), x.data(), out, checks);
        for (unsigned c = 0; c < checks; ++c)
            out[c] = out[c] * x[c].pow(offset);
    });
    for (unsigned c = 0; c < checks; ++c) {
        F want = F::zero();
        for (size_t b = 0; b < blocks.size(); ++b)
            want = want + partial[b * checks + c];
        // The bit-reversed position as a (part, offset) pair.
        uint64_t at = bitReverse(pos[c], log_n);
        size_t part = 0;
        while (at >= evals[part].size())
            at -= evals[part++].size();
        if (!(evals[part][at] == want))
            return false;
    }
    return true;
}

/** Forward: @p input natural order, @p output bit-reversed. */
template <NttField F>
bool
spotCheckForward(const std::vector<F> &input, const std::vector<F> &output,
                 unsigned checks, uint64_t seed)
{
    return spotCheck<F>({input}, {output}, F::one(), checks, seed);
}

/** Inverse: @p input bit-reversed evaluations, @p output coefficients. */
template <NttField F>
bool
spotCheckInverse(const std::vector<F> &input, const std::vector<F> &output,
                 unsigned checks, uint64_t seed)
{
    return spotCheck<F>({output}, {input}, F::one(), checks, seed);
}

/** Coset forward (UniNttEngine::forwardCoset): points shift * w^k. */
template <NttField F>
bool
spotCheckCoset(const std::vector<F> &input, const std::vector<F> &output,
               F shift, unsigned checks, uint64_t seed)
{
    return spotCheck<F>({input}, {output}, shift, checks, seed);
}

} // namespace unintt

#endif // UNINTT_UNINTT_VERIFY_HH
