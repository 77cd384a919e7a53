/**
 * @file
 * Vector kernel shapes shared by every SIMD backend. A backend
 * supplies an "ops policy" — vector load/store/broadcast, exact
 * lane-wise field add/sub/mul, an in-place L x L lane transpose of L
 * vectors, and the ISA's 64-bit word lanes (Ops::Words) — and
 * VecKernels<Ops> instantiates every FieldKernels slot from it,
 * peeling scalar tails through the field's own operators so any span
 * length and alignment is legal.
 *
 * Internal header: include only from translation units compiled with
 * the backend's ISA flags (kernels_avx2.cc, kernels_avx512.cc). The
 * policies implement the *same formulas* as the scalar reference in
 * kernels.hh, lane-wise, so outputs are byte-identical; that contract
 * is what the dispatch-layer differential tests pin.
 */

#ifndef UNINTT_FIELD_KERNELS_SIMD_HH
#define UNINTT_FIELD_KERNELS_SIMD_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "field/kernels.hh"

namespace unintt {
namespace spankernels {

/**
 * The word slots over one ISA's 64-bit lanes, which every table of
 * that ISA binds: wordHash, and seededFill for Goldilocks, whose
 * elements are canonical words. @p Wd supplies load/store of raw
 * words, set1, ramp(x) = (x, x + 1, ...), bxor, add, srl<k>, the low
 * 64 bits of a lane product (mul; AVX-512F has no vpmullq, so both
 * ISAs build it from vpmuludq) and Goldilocks::fromU64 (canon).
 */
template <typename Wd>
struct VecWordKernels
{
    using V = decltype(Wd::set1(0));
    static constexpr size_t L = Wd::kLanes;

    /** mix64 (util/checksum.hh), lane-wise. */
    static V
    mix(V z)
    {
        z = Wd::mul(Wd::bxor(z, Wd::template srl<30>(z)),
                    Wd::set1(0xbf58476d1ce4e5b9ULL));
        z = Wd::mul(Wd::bxor(z, Wd::template srl<27>(z)),
                    Wd::set1(0x94d049bb133111ebULL));
        return Wd::bxor(z, Wd::template srl<31>(z));
    }

    static uint64_t
    wordHash(const void *data, size_t words, uint64_t first)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        // Lane k salts word i + k: kChecksumSalt * (first + i + k).
        V salt = Wd::mul(Wd::ramp(first), Wd::set1(kChecksumSalt));
        const V step = Wd::set1(kChecksumSalt * L);
        V acc = Wd::set1(0);
        size_t i = 0;
        for (; i + L <= words; i += L) {
            acc = Wd::bxor(acc, mix(Wd::add(Wd::load(p + 8 * i), salt)));
            salt = Wd::add(salt, step);
        }
        uint64_t lane[L];
        Wd::store(lane, acc);
        uint64_t h = 0;
        for (uint64_t x : lane)
            h ^= x;
        return h ^ wordHashScalar(p + 8 * i, words - i, first + i);
    }

    static void
    seededFill(Goldilocks *out, size_t n, uint64_t seed, uint64_t i0)
    {
        V idx = Wd::ramp(i0);
        const V s = Wd::set1(seed);
        const V step = Wd::set1(L);
        size_t i = 0;
        for (; i + L <= n; i += L) {
            Wd::store(out + i, Wd::canon(mix(Wd::bxor(s, idx))));
            idx = Wd::add(idx, step);
        }
        seededFillScalar(out + i, n - i, seed, i0 + i);
    }
};

template <typename Ops>
struct VecKernels
{
    using F = typename Ops::Field;
    using Vec = decltype(Ops::load(static_cast<const F *>(nullptr)));
    static constexpr size_t L = Ops::kLanes;
    /** Sub-lane block width, FieldKernels::subLaneWidth(). */
    static constexpr size_t W = L > 8 ? L : 8;

    // Strided twiddles (no library caller) take the scalar reference.
    static void
    bflyFwd(F *lo, F *hi, const F *tw, size_t tw_stride, size_t n)
    {
        size_t j = 0;
        if (tw_stride == 1) {
            for (; j + L <= n; j += L) {
                const auto u = Ops::load(lo + j);
                const auto v = Ops::load(hi + j);
                const auto w = Ops::load(tw + j);
                Ops::store(lo + j, Ops::add(u, v));
                Ops::store(hi + j, Ops::mul(Ops::sub(u, v), w));
            }
        }
        bflyFwdScalar(lo + j, hi + j, tw + j * tw_stride, tw_stride,
                      n - j);
    }

    static void
    bflyInv(F *lo, F *hi, const F *tw, size_t tw_stride, size_t n)
    {
        size_t j = 0;
        if (tw_stride == 1) {
            for (; j + L <= n; j += L) {
                const auto u = Ops::load(lo + j);
                const auto v = Ops::mul(Ops::load(hi + j),
                                        Ops::load(tw + j));
                Ops::store(lo + j, Ops::add(u, v));
                Ops::store(hi + j, Ops::sub(u, v));
            }
        }
        bflyInvScalar(lo + j, hi + j, tw + j * tw_stride, tw_stride,
                      n - j);
    }

    // The radix slots' scalar tails run only when columns are left: a
    // call whose n is a multiple of L (every flat-sweep call) pays no
    // tail dispatch. n is independent of h, so a tail rebases every
    // pointer.

    static void
    r4Fwd(F *p0, F *p1, F *p2, F *p3, const F *twa, const F *twb,
          size_t h, size_t n)
    {
        size_t i = 0;
        for (; i + L <= n; i += L) {
            const auto a0 = Ops::load(p0 + i);
            const auto a1 = Ops::load(p1 + i);
            const auto a2 = Ops::load(p2 + i);
            const auto a3 = Ops::load(p3 + i);
            const auto u0 = Ops::add(a0, a2);
            const auto u2 =
                Ops::mul(Ops::sub(a0, a2), Ops::load(twa + i));
            const auto u1 = Ops::add(a1, a3);
            const auto u3 =
                Ops::mul(Ops::sub(a1, a3), Ops::load(twa + h + i));
            const auto wb = Ops::load(twb + i);
            Ops::store(p0 + i, Ops::add(u0, u1));
            Ops::store(p1 + i, Ops::mul(Ops::sub(u0, u1), wb));
            Ops::store(p2 + i, Ops::add(u2, u3));
            Ops::store(p3 + i, Ops::mul(Ops::sub(u2, u3), wb));
        }
        if (i < n)
            r4FwdScalar(p0 + i, p1 + i, p2 + i, p3 + i, twa + i, twb + i,
                        h, n - i);
    }

    static void
    r8Fwd(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6, F *p7,
          const F *twa, const F *twb, const F *twc, size_t h, size_t n)
    {
        size_t i = 0;
        for (; i + L <= n; i += L) {
            const auto a0 = Ops::load(p0 + i);
            const auto a1 = Ops::load(p1 + i);
            const auto a2 = Ops::load(p2 + i);
            const auto a3 = Ops::load(p3 + i);
            const auto a4 = Ops::load(p4 + i);
            const auto a5 = Ops::load(p5 + i);
            const auto a6 = Ops::load(p6 + i);
            const auto a7 = Ops::load(p7 + i);
            const auto u0 = Ops::add(a0, a4);
            const auto u4 =
                Ops::mul(Ops::sub(a0, a4), Ops::load(twa + i));
            const auto u1 = Ops::add(a1, a5);
            const auto u5 =
                Ops::mul(Ops::sub(a1, a5), Ops::load(twa + h + i));
            const auto u2 = Ops::add(a2, a6);
            const auto u6 =
                Ops::mul(Ops::sub(a2, a6), Ops::load(twa + 2 * h + i));
            const auto u3 = Ops::add(a3, a7);
            const auto u7 =
                Ops::mul(Ops::sub(a3, a7), Ops::load(twa + 3 * h + i));
            const auto wb0 = Ops::load(twb + i);
            const auto wb1 = Ops::load(twb + h + i);
            const auto v0 = Ops::add(u0, u2);
            const auto v2 = Ops::mul(Ops::sub(u0, u2), wb0);
            const auto v1 = Ops::add(u1, u3);
            const auto v3 = Ops::mul(Ops::sub(u1, u3), wb1);
            const auto v4 = Ops::add(u4, u6);
            const auto v6 = Ops::mul(Ops::sub(u4, u6), wb0);
            const auto v5 = Ops::add(u5, u7);
            const auto v7 = Ops::mul(Ops::sub(u5, u7), wb1);
            const auto wc = Ops::load(twc + i);
            Ops::store(p0 + i, Ops::add(v0, v1));
            Ops::store(p1 + i, Ops::mul(Ops::sub(v0, v1), wc));
            Ops::store(p2 + i, Ops::add(v2, v3));
            Ops::store(p3 + i, Ops::mul(Ops::sub(v2, v3), wc));
            Ops::store(p4 + i, Ops::add(v4, v5));
            Ops::store(p5 + i, Ops::mul(Ops::sub(v4, v5), wc));
            Ops::store(p6 + i, Ops::add(v6, v7));
            Ops::store(p7 + i, Ops::mul(Ops::sub(v6, v7), wc));
        }
        if (i < n)
            r8FwdScalar(p0 + i, p1 + i, p2 + i, p3 + i, p4 + i, p5 + i,
                        p6 + i, p7 + i, twa + i, twb + i, twc + i, h,
                        n - i);
    }

    static void
    r4Inv(F *p0, F *p1, F *p2, F *p3, const F *twa, const F *twb,
          size_t h, size_t n)
    {
        size_t i = 0;
        for (; i + L <= n; i += L) {
            const auto wa = Ops::load(twa + i);
            const auto a0 = Ops::load(p0 + i);
            const auto m1 = Ops::mul(Ops::load(p1 + i), wa);
            const auto a2 = Ops::load(p2 + i);
            const auto m3 = Ops::mul(Ops::load(p3 + i), wa);
            const auto u0 = Ops::add(a0, m1);
            const auto u1 = Ops::sub(a0, m1);
            const auto n2 = Ops::mul(Ops::add(a2, m3),
                                     Ops::load(twb + i));
            const auto n3 = Ops::mul(Ops::sub(a2, m3),
                                     Ops::load(twb + h + i));
            Ops::store(p0 + i, Ops::add(u0, n2));
            Ops::store(p2 + i, Ops::sub(u0, n2));
            Ops::store(p1 + i, Ops::add(u1, n3));
            Ops::store(p3 + i, Ops::sub(u1, n3));
        }
        if (i < n)
            r4InvScalar(p0 + i, p1 + i, p2 + i, p3 + i, twa + i, twb + i,
                        h, n - i);
    }

    static void
    r8Inv(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6, F *p7,
          const F *twa, const F *twb, const F *twc, size_t h, size_t n)
    {
        size_t i = 0;
        for (; i + L <= n; i += L) {
            const auto wa = Ops::load(twa + i);
            const auto a0 = Ops::load(p0 + i);
            const auto m1 = Ops::mul(Ops::load(p1 + i), wa);
            const auto a2 = Ops::load(p2 + i);
            const auto m3 = Ops::mul(Ops::load(p3 + i), wa);
            const auto a4 = Ops::load(p4 + i);
            const auto m5 = Ops::mul(Ops::load(p5 + i), wa);
            const auto a6 = Ops::load(p6 + i);
            const auto m7 = Ops::mul(Ops::load(p7 + i), wa);
            const auto wb0 = Ops::load(twb + i);
            const auto wb1 = Ops::load(twb + h + i);
            const auto u0 = Ops::add(a0, m1);
            const auto u1 = Ops::sub(a0, m1);
            const auto n2 = Ops::mul(Ops::add(a2, m3), wb0);
            const auto n3 = Ops::mul(Ops::sub(a2, m3), wb1);
            const auto u4 = Ops::add(a4, m5);
            const auto u5 = Ops::sub(a4, m5);
            const auto n6 = Ops::mul(Ops::add(a6, m7), wb0);
            const auto n7 = Ops::mul(Ops::sub(a6, m7), wb1);
            const auto v0 = Ops::add(u0, n2);
            const auto v2 = Ops::sub(u0, n2);
            const auto v1 = Ops::add(u1, n3);
            const auto v3 = Ops::sub(u1, n3);
            const auto c4 = Ops::mul(Ops::add(u4, n6), Ops::load(twc + i));
            const auto c6 = Ops::mul(Ops::sub(u4, n6),
                                     Ops::load(twc + 2 * h + i));
            const auto c5 = Ops::mul(Ops::add(u5, n7),
                                     Ops::load(twc + h + i));
            const auto c7 = Ops::mul(Ops::sub(u5, n7),
                                     Ops::load(twc + 3 * h + i));
            Ops::store(p0 + i, Ops::add(v0, c4));
            Ops::store(p4 + i, Ops::sub(v0, c4));
            Ops::store(p1 + i, Ops::add(v1, c5));
            Ops::store(p5 + i, Ops::sub(v1, c5));
            Ops::store(p2 + i, Ops::add(v2, c6));
            Ops::store(p6 + i, Ops::sub(v2, c6));
            Ops::store(p3 + i, Ops::add(v3, c7));
            Ops::store(p7 + i, Ops::sub(v3, c7));
        }
        if (i < n)
            r8InvScalar(p0 + i, p1 + i, p2 + i, p3 + i, p4 + i, p5 + i,
                        p6 + i, p7 + i, twa + i, twb + i, twc + i, h,
                        n - i);
    }

    // ----- sub-lane stages: L blocks at a time, transposed -------------
    //
    // v[i] holds in-block position i of L consecutive W-element blocks
    // (lane b = block b), so a stage of half H < W pairs whole vectors
    // v[i] and v[i + H] under one broadcast twiddle. Every index below
    // is a compile-time constant, which keeps v in registers.

    /**
     * Load L blocks from @p p into v transposed: block b's vector c
     * (elements c*L .. c*L + L) is row b of transpose group c, and
     * transposing the group leaves position c*L + k in v[c*L + k].
     */
    template <size_t... I>
    static void
    subLaneLoad(const F *p, Vec *v, std::index_sequence<I...>)
    {
        ((v[I] = Ops::load(p + I % L * W + I / L * L)), ...);
        ((I % L == 0 ? Ops::transpose(v + I) : void()), ...);
    }

    /** Inverse of subLaneLoad: the transpose undoes itself. */
    template <size_t... I>
    static void
    subLaneStore(F *p, Vec *v, std::index_sequence<I...>)
    {
        ((I % L == 0 ? Ops::transpose(v + I) : void()), ...);
        (Ops::store(p + I % L * W + I / L * L, v[I]), ...);
    }

    /**
     * Butterfly K of the stage of half H: it pairs positions i and
     * i + H under twiddle J = i mod H, broadcast in wt[W - 2H + J]
     * (the stage's offset in the packed layout). J == 0 is the unit
     * twiddle and multiplies nothing.
     */
    template <size_t H, bool Dit, size_t K>
    static void
    subLaneBfly(Vec *v, const Vec *wt)
    {
        constexpr size_t J = K % H;
        constexpr size_t i = K / H * 2 * H + J;
        const Vec a = v[i];
        Vec b = v[i + H];
        if constexpr (Dit) {
            if constexpr (J != 0)
                b = Ops::mul(b, wt[W - 2 * H + J]);
            v[i] = Ops::add(a, b);
            v[i + H] = Ops::sub(a, b);
        } else {
            v[i] = Ops::add(a, b);
            v[i + H] = Ops::sub(a, b);
            if constexpr (J != 0)
                v[i + H] = Ops::mul(v[i + H], wt[W - 2 * H + J]);
        }
    }

    /** The log2(W) stages: DIF halves W/2 down to 1, DIT 1 up to W/2. */
    template <bool Dit, size_t... S>
    static void
    subLaneStages(Vec *v, const Vec *wt, std::index_sequence<S...>)
    {
        (
            [&]<size_t... K>(std::index_sequence<K...>) {
                constexpr size_t H =
                    Dit ? size_t{1} << S : W / 2 >> S;
                (subLaneBfly<H, Dit, K>(v, wt), ...);
            }(std::make_index_sequence<W / 2>{}),
            ...);
    }

    /** subLaneFwd (Dit == false) and subLaneInv (Dit == true). */
    template <bool Dit>
    static void
    subLane(F *p, const F *tw, size_t blocks)
    {
        Vec wt[W - 1];
        for (size_t i = 0; i < W - 1; ++i)
            wt[i] = Ops::bcast(tw[i]);
        size_t b = 0;
        for (; b + L <= blocks; b += L) {
            Vec v[W];
            subLaneLoad(p + b * W, v, std::make_index_sequence<W>{});
            subLaneStages<Dit>(
                v, wt, std::make_index_sequence<std::countr_zero(W)>{});
            subLaneStore(p + b * W, v, std::make_index_sequence<W>{});
        }
        // Fewer than L blocks left: the scalar form of the same width.
        if constexpr (Dit)
            subLaneInvScalar<F, W>(p + b * W, tw, blocks - b);
        else
            subLaneFwdScalar<F, W>(p + b * W, tw, blocks - b);
    }

    static void
    scaleSpan(F *p, F s, size_t n)
    {
        const auto vs = Ops::bcast(s);
        size_t j = 0;
        for (; j + L <= n; j += L)
            Ops::store(p + j, Ops::mul(Ops::load(p + j), vs));
        for (; j < n; ++j)
            p[j] *= s;
    }

    /**
     * Lane-split evaluation of M points: P(x) = T(x) + x^t * S(x) with
     * T the t = n mod L lowest coefficients and
     * S(x) = sum_{r<L} x^r * Q_r(x^L), where lane r of a point's
     * accumulator runs the Horner chain of Q_r in x^L. The M points
     * share every vector load; an L-term fold in x and a scalar Horner
     * tail over T finish each sum.
     */
    template <size_t M>
    static void
    hornerLanes(const F *coef, size_t n, const F *x, F *out)
    {
        static_assert((L & (L - 1)) == 0, "lane count is a power of two");
        const size_t t = n % L;
        const F *body = coef + t;
        decltype(Ops::bcast(x[0])) acc[M], y[M];
        for (size_t c = 0; c < M; ++c) {
            F xl = x[c];
            for (size_t s = 1; s < L; s <<= 1)
                xl = xl * xl;
            acc[c] = Ops::bcast(F::fromU64(0));
            y[c] = Ops::bcast(xl);
        }
        for (size_t j = n / L; j-- > 0;) {
            const auto v = Ops::load(body + j * L);
            for (size_t c = 0; c < M; ++c)
                acc[c] = Ops::add(Ops::mul(acc[c], y[c]), v);
        }
        F lane[L];
        for (size_t c = 0; c < M; ++c) {
            Ops::store(lane, acc[c]);
            F s = lane[L - 1];
            for (size_t r = L - 1; r-- > 0;)
                s = s * x[c] + lane[r];
            for (size_t i = t; i-- > 0;)
                s = s * x[c] + coef[i];
            out[c] = s;
        }
    }

    static void
    hornerSpan(const F *coef, size_t n, const F *x, F *out, size_t k)
    {
        size_t c = 0;
        for (; c + 4 <= k; c += 4)
            hornerLanes<4>(coef, n, x + c, out + c);
        if (k - c == 3)
            hornerLanes<3>(coef, n, x + c, out + c);
        else if (k - c == 2)
            hornerLanes<2>(coef, n, x + c, out + c);
        else if (k - c == 1)
            hornerLanes<1>(coef, n, x + c, out + c);
    }

    /** Build the full table from this backend's shapes. */
    static FieldKernels<F>
    table(IsaPath path, const char *name)
    {
        FieldKernels<F> t;
        t.path = path;
        t.name = name;
        t.lanes = static_cast<unsigned>(L);
        t.bflyFwd = &bflyFwd;
        t.bflyInv = &bflyInv;
        t.r4Fwd = &r4Fwd;
        t.r8Fwd = &r8Fwd;
        t.r4Inv = &r4Inv;
        t.r8Inv = &r8Inv;
        t.subLaneFwd = &subLane<false>;
        t.subLaneInv = &subLane<true>;
        t.scaleSpan = &scaleSpan;
        t.dotSpan = &dotSpanScalar<F>; // ABFT-only; scalar is exact
        t.hornerSpan = &hornerSpan;
        using Words = VecWordKernels<typename Ops::Words>;
        if constexpr (std::is_same_v<F, Goldilocks>)
            t.seededFill = &Words::seededFill;
        else
            t.seededFill = &seededFillScalar<F>;
        t.wordHash = &Words::wordHash;
        return t;
    }
};

} // namespace spankernels
} // namespace unintt

#endif // UNINTT_FIELD_KERNELS_SIMD_HH
