/**
 * @file
 * In-place iterative radix-2 transforms over per-stage compacted
 * twiddle slabs (twiddle_cache.hh):
 *
 *  - nttDif: Gentleman–Sande decimation-in-frequency butterflies,
 *    Natural input -> BitReversed output;
 *  - nttDit: Cooley–Tukey decimation-in-time butterflies,
 *    BitReversed input -> Natural output.
 *
 * The pair composes without any permutation pass, which is the layout
 * every engine in this library uses internally. Natural->Natural
 * wrappers that add the explicit bit-reversal are provided for callers
 * that need ordered output.
 */

#ifndef UNINTT_NTT_RADIX2_HH
#define UNINTT_NTT_RADIX2_HH

#include <vector>

#include "field/dispatch.hh"
#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "ntt/twiddle.hh"
#include "ntt/twiddle_cache.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace unintt {

/**
 * Decimation-in-frequency butterflies over @p a (size n, natural order).
 * Output is in bit-reversed order. Stage s reads sl.slab(s)[j] — the
 * unit-stride image of w^(j << s) — so the inner loop walks the
 * twiddles contiguously. @p sl must be built for size n; for Inverse
 * semantics build it with w^-1 and scale afterwards (see
 * nttInverseInPlace).
 */
template <NttField F>
void
nttDif(F *a, size_t n, const TwiddleSlabs<F> &sl)
{
    UNINTT_ASSERT(sl.n() == n, "twiddle slab size mismatch");
    const FieldKernels<F> &fk = fieldKernels<F>();
    unsigned s = 0;
    for (size_t half = n / 2; half >= 1; half /= 2, ++s) {
        const F *tw = sl.slab(s);
        for (size_t start = 0; start < n; start += 2 * half)
            fk.bflyFwd(a + start, a + start + half, tw, 1, half);
    }
}

/**
 * Decimation-in-time butterflies over @p a (size n, bit-reversed order).
 * Output is in natural order. Slabs as for nttDif.
 */
template <NttField F>
void
nttDit(F *a, size_t n, const TwiddleSlabs<F> &sl)
{
    UNINTT_ASSERT(sl.n() == n, "twiddle slab size mismatch");
    const FieldKernels<F> &fk = fieldKernels<F>();
    unsigned s = log2Exact(n);
    for (size_t half = 1; half < n; half *= 2) {
        const F *tw = sl.slab(--s);
        for (size_t start = 0; start < n; start += 2 * half)
            fk.bflyInv(a + start, a + start + half, tw, 1, half);
    }
}

/**
 * Forward NTT, natural order in and out (adds the bit-reversal pass).
 * Twiddles come from the per-field slab cache (backed by the
 * TwiddleCache), so repeated transforms of one size (prover loops) skip
 * the root-of-unity regeneration and read contiguously.
 */
template <NttField F>
void
nttForwardInPlace(std::vector<F> &a)
{
    auto sl = cachedTwiddleSlabs<F>(a.size(), NttDirection::Forward);
    nttDif(a.data(), a.size(), *sl);
    bitReversePermute(a.data(), a.size());
}

/**
 * Inverse NTT, natural order in and out, including the n^-1 scaling.
 */
template <NttField F>
void
nttInverseInPlace(std::vector<F> &a)
{
    auto sl = cachedTwiddleSlabs<F>(a.size(), NttDirection::Inverse);
    bitReversePermute(a.data(), a.size());
    nttDit(a.data(), a.size(), *sl);
    F scale = inverseScale<F>(a.size());
    fieldKernels<F>().scaleSpan(a.data(), scale, a.size());
}

/**
 * One transform in the permutation-free convention:
 * Forward maps Natural -> BitReversed, Inverse maps BitReversed ->
 * Natural (with n^-1 scaling). This is the fast path engines replicate.
 */
template <NttField F>
void
nttNoPermute(std::vector<F> &a, NttDirection dir)
{
    auto sl = cachedTwiddleSlabs<F>(a.size(), dir);
    if (dir == NttDirection::Forward) {
        nttDif(a.data(), a.size(), *sl);
    } else {
        nttDit(a.data(), a.size(), *sl);
        F scale = inverseScale<F>(a.size());
        fieldKernels<F>().scaleSpan(a.data(), scale, a.size());
    }
}

} // namespace unintt

#endif // UNINTT_NTT_RADIX2_HH
