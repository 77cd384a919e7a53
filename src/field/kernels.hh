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
 *    alignment, and stride. The reductions (dotSpan, hornerSpan,
 *    wordHash) choose their own order; they return the same value.
 *  - No alignment requirements; spans may start anywhere.
 *  - Any span length, including lengths below the vector width (the
 *    vector kernels peel scalar tails / fall back wholesale).
 *  - Data spans are always unit-stride. Every library caller passes
 *    `tw_stride` 1 to the radix-2 slots, and the vector tables hand
 *    any other stride to the scalar reference. The radix-4/radix-8
 *    slots of the fused sweep read their twiddle slabs at unit stride
 *    too, with one parameter list for both directions: a forward slot
 *    runs its stages outer to inner, the inverse slot inner to outer.
 *
 * One stage walk (fusedStages, unintt/executors.hh) drives these
 * slots in both directions. It splits a tail group's stages at the
 * table's sub-lane width W = max(8, lanes) (subLaneWidth()). The
 * upper stages, half-span >= W, run in the radix-8/4/2 slots, whose
 * spans then always fill whole vectors. The sub-lane stages, halves
 * W/2 down to 1, run in one subLaneFwd/subLaneInv call over the
 * group's W-element blocks:
 * the vector tables transpose L blocks so that each vector holds one
 * in-block position of L blocks, and run those stages lane-wise, the
 * host's counterpart of a GPU warp finishing its smallest butterflies
 * in registers.
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

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "field/goldilocks.hh"
#include "field/isa.hh"
#include "util/checksum.hh"

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
     * Forward (DIF) radix-4 butterfly span of the fused sweep: the
     * stages of halves 2h and h applied in registers, in that order.
     * Column i < n couples p0[i]..p3[i]; the half-2h stage pairs
     * (p0, p2) with twa[i] and (p1, p3) with twa[h + i], the half-h
     * stage pairs (p0, p1) and (p2, p3) with twb[i]. Unit stride, and
     * every read stays below its slab length: no wraps.
     */
    void (*r4Fwd)(F *p0, F *p1, F *p2, F *p3, const F *twa,
                  const F *twb, size_t h, size_t n) = nullptr;

    /**
     * Forward (DIF) radix-8 butterfly span: three stages (halves 4h,
     * 2h, h) in registers. The half-4h stage pairs (p[k], p[k + 4])
     * with twa[k * h + i] for k < 4; the last two apply r4Fwd's
     * pairings to p0..p3 and to p4..p7 with twb and twc.
     */
    void (*r8Fwd)(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6,
                  F *p7, const F *twa, const F *twb, const F *twc,
                  size_t h, size_t n) = nullptr;

    /**
     * Inverse (DIT) radix-4 butterfly span of the fused sweep: the
     * stages of halves h and 2h applied in registers, in that order.
     * Column i < n couples p0[i]..p3[i]; the half-h stage pairs
     * (p0, p1) and (p2, p3) with twa[i], the half-2h stage pairs
     * (p0, p2) with twb[i] and (p1, p3) with twb[h + i]. Unit stride,
     * and every read stays below its slab length: no wraps.
     */
    void (*r4Inv)(F *p0, F *p1, F *p2, F *p3, const F *twa,
                  const F *twb, size_t h, size_t n) = nullptr;

    /**
     * Inverse (DIT) radix-8 butterfly span: three stages (halves h,
     * 2h, 4h) in registers. The first two apply r4Inv's pairings to
     * p0..p3 and to p4..p7; the half-4h stage pairs (p[k], p[k + 4])
     * with twc[k * h + i] for k < 4.
     */
    void (*r8Inv)(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6,
                  F *p7, const F *twa, const F *twb, const F *twc,
                  size_t h, size_t n) = nullptr;

    /**
     * Sub-lane tail of a forward sweep: the last log2(W) DIF stages,
     * halves W/2, ..., 2, 1, over @p blocks contiguous W-element
     * blocks from p, W = subLaneWidth(). @p tw holds the stages'
     * twiddles back to back, W - 1 entries: W/2 for half W/2 at
     * tw[0], W/4 for half W/4 at tw[W/2], ..., one for half 1 at
     * tw[W - 2] (the layout of TwiddleSlabs' last log2(W) slabs).
     * Each stage's head twiddle is w^0 == 1, and the slot skips those
     * multiplies: multiplying by one is the exact identity.
     */
    void (*subLaneFwd)(F *p, const F *tw, size_t blocks) = nullptr;

    /**
     * Sub-lane head of an inverse sweep: the first log2(W) DIT stages,
     * halves 1, 2, ..., W/2, in that order, over the blocks and the
     * twiddle layout of subLaneFwd.
     */
    void (*subLaneInv)(F *p, const F *tw, size_t blocks) = nullptr;

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

    /**
     * Seeded fill (job and soak inputs):
     *   out[i] = F::fromU64(mix64(seed ^ (i0 + i)))   for i < n,
     * elements i0 .. i0 + n of the vector one seed generates, so a
     * shard, or a slice of one, fills on its own.
     */
    void (*seededFill)(F *out, size_t n, uint64_t seed,
                       uint64_t i0) = nullptr;

    /**
     * Position-salted word hash (payload checksums): the XOR over
     * i < words of mix64(w[i] + kChecksumSalt * (first + i)), w the
     * 64-bit words at @p data, i.e. checksumWords (util/checksum.hh)
     * over whole words. XOR is order-free, so slices of one payload
     * hash apart and combine in any order.
     */
    uint64_t (*wordHash)(const void *data, size_t words,
                         uint64_t first) = nullptr;

    /** Block width W of the sub-lane slots: max(8, lanes). */
    size_t subLaneWidth() const { return lanes > 8 ? lanes : 8; }
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

template <typename F>
void
r4FwdScalar(F *p0, F *p1, F *p2, F *p3, const F *twa, const F *twb,
            size_t h, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const F a0 = p0[i], a1 = p1[i];
        const F a2 = p2[i], a3 = p3[i];
        const F u0 = a0 + a2, u2 = (a0 - a2) * twa[i];
        const F u1 = a1 + a3, u3 = (a1 - a3) * twa[h + i];
        const F wb = twb[i];
        p0[i] = u0 + u1;
        p1[i] = (u0 - u1) * wb;
        p2[i] = u2 + u3;
        p3[i] = (u2 - u3) * wb;
    }
}

template <typename F>
void
r8FwdScalar(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6, F *p7,
            const F *twa, const F *twb, const F *twc, size_t h,
            size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const F a0 = p0[i], a1 = p1[i];
        const F a2 = p2[i], a3 = p3[i];
        const F a4 = p4[i], a5 = p5[i];
        const F a6 = p6[i], a7 = p7[i];
        const F u0 = a0 + a4;
        const F u4 = (a0 - a4) * twa[i];
        const F u1 = a1 + a5;
        const F u5 = (a1 - a5) * twa[h + i];
        const F u2 = a2 + a6;
        const F u6 = (a2 - a6) * twa[2 * h + i];
        const F u3 = a3 + a7;
        const F u7 = (a3 - a7) * twa[3 * h + i];
        const F wb0 = twb[i], wb1 = twb[h + i];
        const F v0 = u0 + u2;
        const F v2 = (u0 - u2) * wb0;
        const F v1 = u1 + u3;
        const F v3 = (u1 - u3) * wb1;
        const F v4 = u4 + u6;
        const F v6 = (u4 - u6) * wb0;
        const F v5 = u5 + u7;
        const F v7 = (u5 - u7) * wb1;
        const F wc = twc[i];
        p0[i] = v0 + v1;
        p1[i] = (v0 - v1) * wc;
        p2[i] = v2 + v3;
        p3[i] = (v2 - v3) * wc;
        p4[i] = v4 + v5;
        p5[i] = (v4 - v5) * wc;
        p6[i] = v6 + v7;
        p7[i] = (v6 - v7) * wc;
    }
}

template <typename F>
void
r4InvScalar(F *p0, F *p1, F *p2, F *p3, const F *twa, const F *twb,
            size_t h, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const F wa = twa[i];
        const F a0 = p0[i], m1 = p1[i] * wa;
        const F a2 = p2[i], m3 = p3[i] * wa;
        const F u0 = a0 + m1, u1 = a0 - m1;
        const F u2 = a2 + m3, u3 = a2 - m3;
        const F n2 = u2 * twb[i], n3 = u3 * twb[h + i];
        p0[i] = u0 + n2;
        p2[i] = u0 - n2;
        p1[i] = u1 + n3;
        p3[i] = u1 - n3;
    }
}

template <typename F>
void
r8InvScalar(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6, F *p7,
            const F *twa, const F *twb, const F *twc, size_t h,
            size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const F wa = twa[i];
        const F a0 = p0[i], m1 = p1[i] * wa;
        const F a2 = p2[i], m3 = p3[i] * wa;
        const F a4 = p4[i], m5 = p5[i] * wa;
        const F a6 = p6[i], m7 = p7[i] * wa;
        const F u0 = a0 + m1, u1 = a0 - m1;
        const F u2 = a2 + m3, u3 = a2 - m3;
        const F u4 = a4 + m5, u5 = a4 - m5;
        const F u6 = a6 + m7, u7 = a6 - m7;
        const F wb0 = twb[i], wb1 = twb[h + i];
        const F n2 = u2 * wb0, n3 = u3 * wb1;
        const F n6 = u6 * wb0, n7 = u7 * wb1;
        const F v0 = u0 + n2, v2 = u0 - n2;
        const F v1 = u1 + n3, v3 = u1 - n3;
        const F v4 = u4 + n6, v6 = u4 - n6;
        const F v5 = u5 + n7, v7 = u5 - n7;
        const F c4 = v4 * twc[i], c5 = v5 * twc[h + i];
        const F c6 = v6 * twc[2 * h + i], c7 = v7 * twc[3 * h + i];
        p0[i] = v0 + c4;
        p4[i] = v0 - c4;
        p1[i] = v1 + c5;
        p5[i] = v1 - c5;
        p2[i] = v2 + c6;
        p6[i] = v2 - c6;
        p3[i] = v3 + c7;
        p7[i] = v3 - c7;
    }
}

/**
 * subLaneFwd on W-element blocks. At W == 8 all three stages run in
 * registers: of the seven twiddles only tw[1..3] (half 4) and tw[5]
 * (half 2) differ from one, and they are hoisted out of the block
 * loop. A wider block runs its half-W/2 stage, then the W/2-wide
 * form on both halves.
 */
template <typename F, size_t W = 8>
void
subLaneFwdScalar(F *p, const F *tw, size_t blocks)
{
    if constexpr (W > 8) {
        constexpr size_t h = W / 2;
        for (size_t b = 0; b < blocks; ++b, p += W) {
            for (size_t j = 0; j < h; ++j) {
                const F u = p[j], v = p[j + h];
                p[j] = u + v;
                p[j + h] = j == 0 ? u - v : (u - v) * tw[j];
            }
            subLaneFwdScalar<F, h>(p, tw + h, 2);
        }
    } else {
        static_assert(W == 8, "sub-lane blocks are 8 or more wide");
        const F wa1 = tw[1], wa2 = tw[2], wa3 = tw[3];
        const F wb1 = tw[5];
        for (size_t b = 0; b < blocks; ++b, p += 8) {
            const F a0 = p[0], a1 = p[1];
            const F a2 = p[2], a3 = p[3];
            const F a4 = p[4], a5 = p[5];
            const F a6 = p[6], a7 = p[7];
            const F u0 = a0 + a4, u4 = a0 - a4;
            const F u1 = a1 + a5, u5 = (a1 - a5) * wa1;
            const F u2 = a2 + a6, u6 = (a2 - a6) * wa2;
            const F u3 = a3 + a7, u7 = (a3 - a7) * wa3;
            const F v0 = u0 + u2, v2 = u0 - u2;
            const F v1 = u1 + u3, v3 = (u1 - u3) * wb1;
            const F v4 = u4 + u6, v6 = u4 - u6;
            const F v5 = u5 + u7, v7 = (u5 - u7) * wb1;
            p[0] = v0 + v1;
            p[1] = v0 - v1;
            p[2] = v2 + v3;
            p[3] = v2 - v3;
            p[4] = v4 + v5;
            p[5] = v4 - v5;
            p[6] = v6 + v7;
            p[7] = v6 - v7;
        }
    }
}

/**
 * subLaneInv on W-element blocks, the DIT mirror of subLaneFwdScalar:
 * at W == 8 the halves 1, 2, 4 in registers with tw[5] (half 2) and
 * tw[1..3] (half 4) hoisted; a wider block runs the W/2-wide form on
 * both halves, then its half-W/2 stage.
 */
template <typename F, size_t W = 8>
void
subLaneInvScalar(F *p, const F *tw, size_t blocks)
{
    if constexpr (W > 8) {
        constexpr size_t h = W / 2;
        for (size_t b = 0; b < blocks; ++b, p += W) {
            subLaneInvScalar<F, h>(p, tw + h, 2);
            for (size_t j = 0; j < h; ++j) {
                const F u = p[j];
                const F v = j == 0 ? p[j + h] : p[j + h] * tw[j];
                p[j] = u + v;
                p[j + h] = u - v;
            }
        }
    } else {
        static_assert(W == 8, "sub-lane blocks are 8 or more wide");
        const F wb1 = tw[5];
        const F wc1 = tw[1], wc2 = tw[2], wc3 = tw[3];
        for (size_t b = 0; b < blocks; ++b, p += 8) {
            const F a0 = p[0], a1 = p[1];
            const F a2 = p[2], a3 = p[3];
            const F a4 = p[4], a5 = p[5];
            const F a6 = p[6], a7 = p[7];
            const F u0 = a0 + a1, u1 = a0 - a1;
            const F u2 = a2 + a3, u3 = a2 - a3;
            const F u4 = a4 + a5, u5 = a4 - a5;
            const F u6 = a6 + a7, u7 = a6 - a7;
            const F n3 = u3 * wb1, n7 = u7 * wb1;
            const F v0 = u0 + u2, v2 = u0 - u2;
            const F v1 = u1 + n3, v3 = u1 - n3;
            const F v4 = u4 + u6, v6 = u4 - u6;
            const F v5 = u5 + n7, v7 = u5 - n7;
            const F c5 = v5 * wc1, c6 = v6 * wc2;
            const F c7 = v7 * wc3;
            p[0] = v0 + v4;
            p[4] = v0 - v4;
            p[1] = v1 + c5;
            p[5] = v1 - c5;
            p[2] = v2 + c6;
            p[6] = v2 - c6;
            p[3] = v3 + c7;
            p[7] = v3 - c7;
        }
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

template <typename F>
void
seededFillScalar(F *out, size_t n, uint64_t seed, uint64_t i0)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = F::fromU64(mix64(seed ^ (i0 + i)));
}

/** The definition itself: checksumWords over whole words. */
inline uint64_t
wordHashScalar(const void *data, size_t words, uint64_t first)
{
    return checksumWords(data, 8 * words, first);
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
    t.r4Inv = &spankernels::r4InvScalar<F>;
    t.r8Inv = &spankernels::r8InvScalar<F>;
    t.subLaneFwd = &spankernels::subLaneFwdScalar<F>;
    t.subLaneInv = &spankernels::subLaneInvScalar<F>;
    t.scaleSpan = &spankernels::scaleSpanScalar<F>;
    t.dotSpan = &spankernels::dotSpanScalar<F>;
    t.hornerSpan = &spankernels::hornerSpanScalar<F>;
    t.seededFill = &spankernels::seededFillScalar<F>;
    t.wordHash = &spankernels::wordHashScalar;
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
