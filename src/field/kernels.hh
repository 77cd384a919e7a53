/**
 * @file
 * The batched span-kernel API: every butterfly/scale/dot/evaluation
 * inner loop of the host execution path, expressed once as primitives
 * over raw `Field *` spans. A FieldKernels<F> table is a bundle of
 * function pointers implementing those primitives for one acceleration
 * path (scalar, AVX2, AVX-512, ...); the runtime router in
 * field/dispatch.hh probes the CPU once and hands callers the best
 * table for their field.
 *
 * Contract shared by every implementation of a slot:
 *
 *  - Exact canonical field arithmetic, applied in the same per-element
 *    operation order as the scalar reference below. Butterflies at
 *    different span indices are independent, so lane-parallel
 *    execution reorders nothing an element can observe: outputs are
 *    byte-identical to the scalar table for every span length,
 *    alignment, and stride. The two reductions (dotSpan, hornerSpan)
 *    choose their own order; they return the same canonical value.
 *  - No alignment requirements; spans may start anywhere.
 *  - Any span length, including lengths below the vector width (the
 *    vector kernels peel scalar tails / fall back wholesale).
 *  - `tw_stride` on the radix-2 slots supports strided twiddle walks
 *    (TwiddleTable layouts); data spans are always unit-stride.
 *
 * The scalar table here is the reference semantics; the SIMD tables
 * (kernels_avx2.cc / kernels_avx512.cc) mirror its formulas
 * lane-wise. Wide multi-word fields (montfield256) get a "mw2" table
 * that keeps two independent element chains in flight per slot —
 * vectorizing across instruction-level parallelism of the word-level
 * schoolbook/CIOS arithmetic instead of across SIMD lanes.
 */

#ifndef UNINTT_FIELD_KERNELS_HH
#define UNINTT_FIELD_KERNELS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "field/goldilocks.hh"
#include "field/isa.hh"

namespace unintt {

/**
 * The kernel table of one (field, acceleration path) pair. Plain
 * function pointers so tables are cheap to pass around and trivially
 * comparable; `lanes` is the SIMD width in field elements (1 for the
 * scalar and multi-word tables) that the schedule compiler's cost
 * model and tile heuristic consume.
 */
template <typename F>
struct FieldKernels
{
    /** Path this table implements (never Auto). */
    IsaPath path = IsaPath::Scalar;
    /** Human-readable table name for reports ("scalar", "avx2", ...). */
    const char *name = "scalar";
    /** Elements processed per vector lane group (1 = no SIMD). */
    unsigned lanes = 1;

    /**
     * Forward radix-2 butterfly span:
     *   u = lo[j]; v = hi[j];
     *   lo[j] = u + v; hi[j] = (u - v) * tw[j * tw_stride]
     */
    void (*bflyFwd)(F *lo, F *hi, const F *tw, size_t tw_stride,
                    size_t n) = nullptr;

    /**
     * Inverse (DIT) radix-2 butterfly span:
     *   u = lo[j]; v = hi[j] * tw[j * tw_stride];
     *   lo[j] = u + v; hi[j] = u - v
     */
    void (*bflyInv)(F *lo, F *hi, const F *tw, size_t tw_stride,
                    size_t n) = nullptr;

    /**
     * Forward radix-4 butterfly span of the fused tile sweep. The
     * butterfly at span index i couples p0[i]..p3[i] with absolute
     * twiddle index j = j0 + i over the compacted stage slabs tw0
     * (stage s) and tw1 (stage s+1); `im` is the fourth root of
     * unity, `hs` the stage-s slab length. The tw0[3j] read wraps
     * past hs with a sign fold (w^(n/2) == -1), applied as the exact
     * operand swap (t13m - t02m) * tw0[3j - hs].
     */
    void (*r4Fwd)(F *p0, F *p1, F *p2, F *p3, const F *tw0,
                  const F *tw1, F im, size_t j0, size_t hs,
                  size_t n) = nullptr;

    /**
     * Forward radix-8 butterfly span of the fused flat sweep: three
     * stages applied in registers; q8 butterflies couple
     * p0[j]..p7[j] with block-local twiddle reads twa[j + k*q8]
     * (stage s), twb[j], twb[q8+j] (stage s+1), twc[j] (stage s+2) —
     * all unit-stride, no wraps.
     */
    void (*r8Fwd)(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6,
                  F *p7, const F *twa, const F *twb, const F *twc,
                  size_t q8) = nullptr;

    /** In-place scale: p[j] *= s. */
    void (*scaleSpan)(F *p, F s, size_t n) = nullptr;

    /**
     * Random-linear-combination dot product sum(coef[j] * x[j]) in a
     * fixed reduction order (ABFT checksums). Every table of one
     * field returns the same canonical value for the same input.
     */
    F (*dotSpan)(const F *coef, const F *x, size_t n) = nullptr;

    /**
     * Multi-point polynomial evaluation (spot checks):
     *   out[c] = sum_{i<n} coef[i] * x[c]^i   for c < k.
     * Same contract as dotSpan: every table of one field returns the
     * same canonical values for the same input.
     */
    void (*hornerSpan)(const F *coef, size_t n, const F *x, F *out,
                       size_t k) = nullptr;
};

namespace spankernels {

// ----- scalar reference implementations --------------------------------

template <typename F>
void
bflyFwdScalar(F *lo, F *hi, const F *tw, size_t tw_stride, size_t n)
{
    for (size_t j = 0; j < n; ++j) {
        const F u = lo[j];
        const F v = hi[j];
        lo[j] = u + v;
        hi[j] = (u - v) * tw[j * tw_stride];
    }
}

template <typename F>
void
bflyInvScalar(F *lo, F *hi, const F *tw, size_t tw_stride, size_t n)
{
    for (size_t j = 0; j < n; ++j) {
        const F u = lo[j];
        const F v = hi[j] * tw[j * tw_stride];
        lo[j] = u + v;
        hi[j] = u - v;
    }
}

/**
 * Split index of the radix-4 span: butterflies [0, isplit) read
 * tw0[3j] directly, [isplit, n) read the sign-folded tw0[3j - hs].
 */
constexpr size_t
r4SplitIndex(size_t j0, size_t hs, size_t n)
{
    const size_t jsplit = (hs + 2) / 3; // first j with 3j >= hs
    return jsplit > j0 ? std::min(n, jsplit - j0) : 0;
}

template <typename F>
void
r4FwdScalar(F *p0, F *p1, F *p2, F *p3, const F *tw0, const F *tw1,
            F im, size_t j0, size_t hs, size_t n)
{
    const size_t isplit = r4SplitIndex(j0, hs, n);
    for (size_t i = 0; i < isplit; ++i) {
        const size_t j = j0 + i;
        const F a0 = p0[i], a1 = p1[i];
        const F a2 = p2[i], a3 = p3[i];
        const F t02p = a0 + a2, t02m = a0 - a2;
        const F t13p = a1 + a3;
        const F t13m = (a1 - a3) * im;
        p0[i] = t02p + t13p;
        p1[i] = (t02p - t13p) * tw1[j];
        p2[i] = (t02m + t13m) * tw0[j];
        p3[i] = (t02m - t13m) * tw0[3 * j];
    }
    for (size_t i = isplit; i < n; ++i) {
        const size_t j = j0 + i;
        const F a0 = p0[i], a1 = p1[i];
        const F a2 = p2[i], a3 = p3[i];
        const F t02p = a0 + a2, t02m = a0 - a2;
        const F t13p = a1 + a3;
        const F t13m = (a1 - a3) * im;
        p0[i] = t02p + t13p;
        p1[i] = (t02p - t13p) * tw1[j];
        p2[i] = (t02m + t13m) * tw0[j];
        p3[i] = (t13m - t02m) * tw0[3 * j - hs];
    }
}

template <typename F>
void
r8FwdScalar(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6, F *p7,
            const F *twa, const F *twb, const F *twc, size_t q8)
{
    for (size_t j = 0; j < q8; ++j) {
        const F a0 = p0[j], a1 = p1[j];
        const F a2 = p2[j], a3 = p3[j];
        const F a4 = p4[j], a5 = p5[j];
        const F a6 = p6[j], a7 = p7[j];
        const F u0 = a0 + a4;
        const F u4 = (a0 - a4) * twa[j];
        const F u1 = a1 + a5;
        const F u5 = (a1 - a5) * twa[q8 + j];
        const F u2 = a2 + a6;
        const F u6 = (a2 - a6) * twa[2 * q8 + j];
        const F u3 = a3 + a7;
        const F u7 = (a3 - a7) * twa[3 * q8 + j];
        const F wb0 = twb[j], wb1 = twb[q8 + j];
        const F v0 = u0 + u2;
        const F v2 = (u0 - u2) * wb0;
        const F v1 = u1 + u3;
        const F v3 = (u1 - u3) * wb1;
        const F v4 = u4 + u6;
        const F v6 = (u4 - u6) * wb0;
        const F v5 = u5 + u7;
        const F v7 = (u5 - u7) * wb1;
        const F wc = twc[j];
        p0[j] = v0 + v1;
        p1[j] = (v0 - v1) * wc;
        p2[j] = v2 + v3;
        p3[j] = (v2 - v3) * wc;
        p4[j] = v4 + v5;
        p5[j] = (v4 - v5) * wc;
        p6[j] = v6 + v7;
        p7[j] = (v6 - v7) * wc;
    }
}

template <typename F>
void
scaleSpanScalar(F *p, F s, size_t n)
{
    for (size_t j = 0; j < n; ++j)
        p[j] *= s;
}

/**
 * Scalar dot. Goldilocks accumulates raw 128-bit products lazily with
 * a wrap counter and reduces once per span (2^128 == -2^32 mod p folds
 * the wraps back); everything else runs four independent accumulator
 * chains with a fixed final reduction order. Both forms yield the
 * canonical sum, so tables of one field agree exactly.
 */
template <typename F>
F
dotSpanScalar(const F *coef, const F *x, size_t n)
{
    if constexpr (std::is_same_v<F, Goldilocks>) {
        unsigned __int128 acc = 0;
        uint64_t wraps = 0;
        for (size_t i = 0; i < n; ++i) {
            const unsigned __int128 p =
                static_cast<unsigned __int128>(coef[i].toU64()) *
                x[i].toU64();
            acc += p;
            wraps += acc < p ? 1 : 0;
        }
        const Goldilocks two128 = Goldilocks::fromU64(
            Goldilocks::kModulus - (uint64_t{1} << 32));
        return Goldilocks::fromU128(acc) +
               two128 * Goldilocks::fromU64(wraps);
    } else {
        F a0 = F::fromU64(0), a1 = a0, a2 = a0, a3 = a0;
        size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            a0 = a0 + coef[i] * x[i];
            a1 = a1 + coef[i + 1] * x[i + 1];
            a2 = a2 + coef[i + 2] * x[i + 2];
            a3 = a3 + coef[i + 3] * x[i + 3];
        }
        for (; i < n; ++i)
            a0 = a0 + coef[i] * x[i];
        return (a0 + a1) + (a2 + a3);
    }
}

/**
 * M interleaved Horner chains over one coefficient span: the chains
 * share every coef[i] read, and their multiply latencies overlap.
 */
template <typename F, size_t M>
void
hornerChains(const F *coef, size_t n, const F *x, F *out)
{
    F acc[M];
    for (size_t c = 0; c < M; ++c)
        acc[c] = F::fromU64(0);
    for (size_t i = n; i-- > 0;)
        for (size_t c = 0; c < M; ++c)
            acc[c] = acc[c] * x[c] + coef[i];
    for (size_t c = 0; c < M; ++c)
        out[c] = acc[c];
}

/** Scalar multi-point evaluation: the points four chains at a time. */
template <typename F>
void
hornerSpanScalar(const F *coef, size_t n, const F *x, F *out, size_t k)
{
    size_t c = 0;
    for (; c + 4 <= k; c += 4)
        hornerChains<F, 4>(coef, n, x + c, out + c);
    if (k - c == 3)
        hornerChains<F, 3>(coef, n, x + c, out + c);
    else if (k - c == 2)
        hornerChains<F, 2>(coef, n, x + c, out + c);
    else if (k - c == 1)
        hornerChains<F, 1>(coef, n, x + c, out + c);
}

// ----- multi-word ILP implementations (wide fields) --------------------
//
// Two independent element chains per iteration: the multi-limb
// add/sub/CIOS sequences of a 256-bit field serialize on carry chains,
// so interleaving two butterflies doubles the exploitable
// instruction-level parallelism without touching per-element operation
// order (byte-identical by construction).

template <typename F>
void
bflyFwdMw2(F *lo, F *hi, const F *tw, size_t tw_stride, size_t n)
{
    size_t j = 0;
    for (; j + 2 <= n; j += 2) {
        const F u0 = lo[j], v0 = hi[j];
        const F u1 = lo[j + 1], v1 = hi[j + 1];
        const F s0 = u0 + v0, d0 = u0 - v0;
        const F s1 = u1 + v1, d1 = u1 - v1;
        lo[j] = s0;
        lo[j + 1] = s1;
        hi[j] = d0 * tw[j * tw_stride];
        hi[j + 1] = d1 * tw[(j + 1) * tw_stride];
    }
    bflyFwdScalar(lo + j, hi + j, tw + j * tw_stride, tw_stride, n - j);
}

template <typename F>
void
bflyInvMw2(F *lo, F *hi, const F *tw, size_t tw_stride, size_t n)
{
    size_t j = 0;
    for (; j + 2 <= n; j += 2) {
        const F u0 = lo[j];
        const F u1 = lo[j + 1];
        const F v0 = hi[j] * tw[j * tw_stride];
        const F v1 = hi[j + 1] * tw[(j + 1) * tw_stride];
        lo[j] = u0 + v0;
        lo[j + 1] = u1 + v1;
        hi[j] = u0 - v0;
        hi[j + 1] = u1 - v1;
    }
    bflyInvScalar(lo + j, hi + j, tw + j * tw_stride, tw_stride, n - j);
}

template <typename F>
void
scaleSpanMw2(F *p, F s, size_t n)
{
    size_t j = 0;
    for (; j + 2 <= n; j += 2) {
        const F a = p[j] * s;
        const F b = p[j + 1] * s;
        p[j] = a;
        p[j + 1] = b;
    }
    for (; j < n; ++j)
        p[j] *= s;
}

} // namespace spankernels

/** Reference table: one element at a time through F's operators. */
template <typename F>
FieldKernels<F>
scalarKernelTable()
{
    FieldKernels<F> t;
    t.path = IsaPath::Scalar;
    t.name = "scalar";
    t.lanes = 1;
    t.bflyFwd = &spankernels::bflyFwdScalar<F>;
    t.bflyInv = &spankernels::bflyInvScalar<F>;
    t.r4Fwd = &spankernels::r4FwdScalar<F>;
    t.r8Fwd = &spankernels::r8FwdScalar<F>;
    t.scaleSpan = &spankernels::scaleSpanScalar<F>;
    t.dotSpan = &spankernels::dotSpanScalar<F>;
    t.hornerSpan = &spankernels::hornerSpanScalar<F>;
    return t;
}

/**
 * Multi-word ILP table for fields without lane-parallel kernels
 * (montfield256): two independent limb-arithmetic chains in flight.
 * @p path records which router decision bound it (Avx2/Avx512 hosts
 * both land here for wide fields), @p name tells reports apart.
 */
template <typename F>
FieldKernels<F>
multiwordKernelTable(IsaPath path, const char *name)
{
    FieldKernels<F> t = scalarKernelTable<F>();
    t.path = path;
    t.name = name;
    t.lanes = 2; // ILP width the cost model should assume
    t.bflyFwd = &spankernels::bflyFwdMw2<F>;
    t.bflyInv = &spankernels::bflyInvMw2<F>;
    t.scaleSpan = &spankernels::scaleSpanMw2<F>;
    return t;
}

} // namespace unintt

#endif // UNINTT_FIELD_KERNELS_HH
