/**
 * @file
 * Vector kernel shapes shared by every SIMD backend. A backend
 * supplies an "ops policy" — vector load/store/broadcast plus exact
 * lane-wise field add/sub/mul — and VecKernels<Ops> instantiates every
 * FieldKernels slot from it, peeling scalar tails through the field's
 * own operators so any span length and alignment is legal.
 *
 * Internal header: include only from translation units compiled with
 * the backend's ISA flags (kernels_avx2.cc, kernels_avx512.cc). The
 * policies implement the *same formulas* as the scalar reference in
 * kernels.hh, lane-wise, so outputs are byte-identical; that contract
 * is what the dispatch-layer differential tests pin.
 */

#ifndef UNINTT_FIELD_KERNELS_SIMD_HH
#define UNINTT_FIELD_KERNELS_SIMD_HH

#include <cstddef>

#include "field/kernels.hh"

namespace unintt {
namespace spankernels {

template <typename Ops>
struct VecKernels
{
    using F = typename Ops::Field;
    static constexpr size_t L = Ops::kLanes;

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
        } else {
            F wt[L];
            for (; j + L <= n; j += L) {
                for (size_t k = 0; k < L; ++k)
                    wt[k] = tw[(j + k) * tw_stride];
                const auto u = Ops::load(lo + j);
                const auto v = Ops::load(hi + j);
                const auto w = Ops::load(wt);
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
        } else {
            F wt[L];
            for (; j + L <= n; j += L) {
                for (size_t k = 0; k < L; ++k)
                    wt[k] = tw[(j + k) * tw_stride];
                const auto u = Ops::load(lo + j);
                const auto v =
                    Ops::mul(Ops::load(hi + j), Ops::load(wt));
                Ops::store(lo + j, Ops::add(u, v));
                Ops::store(hi + j, Ops::sub(u, v));
            }
        }
        bflyInvScalar(lo + j, hi + j, tw + j * tw_stride, tw_stride,
                      n - j);
    }

    static void
    r4Fwd(F *p0, F *p1, F *p2, F *p3, const F *tw0, const F *tw1,
          F im, size_t j0, size_t hs, size_t n)
    {
        const size_t isplit = r4SplitIndex(j0, hs, n);
        const auto vim = Ops::bcast(im);
        F w3t[L];
        size_t i = 0;
        for (; i + L <= isplit; i += L) {
            // tw0[3j] is a stride-3 walk; gather through a bounce
            // buffer so backends need no gather instruction.
            for (size_t k = 0; k < L; ++k)
                w3t[k] = tw0[3 * (j0 + i + k)];
            const auto a0 = Ops::load(p0 + i);
            const auto a1 = Ops::load(p1 + i);
            const auto a2 = Ops::load(p2 + i);
            const auto a3 = Ops::load(p3 + i);
            const auto t02p = Ops::add(a0, a2);
            const auto t02m = Ops::sub(a0, a2);
            const auto t13p = Ops::add(a1, a3);
            const auto t13m = Ops::mul(Ops::sub(a1, a3), vim);
            Ops::store(p0 + i, Ops::add(t02p, t13p));
            Ops::store(p1 + i, Ops::mul(Ops::sub(t02p, t13p),
                                        Ops::load(tw1 + j0 + i)));
            Ops::store(p2 + i, Ops::mul(Ops::add(t02m, t13m),
                                        Ops::load(tw0 + j0 + i)));
            Ops::store(p3 + i, Ops::mul(Ops::sub(t02m, t13m),
                                        Ops::load(w3t)));
        }
        if (i < isplit) {
            r4FwdScalar(p0 + i, p1 + i, p2 + i, p3 + i, tw0, tw1, im,
                        j0 + i, hs, isplit - i);
            i = isplit;
        }
        for (; i + L <= n; i += L) {
            for (size_t k = 0; k < L; ++k)
                w3t[k] = tw0[3 * (j0 + i + k) - hs];
            const auto a0 = Ops::load(p0 + i);
            const auto a1 = Ops::load(p1 + i);
            const auto a2 = Ops::load(p2 + i);
            const auto a3 = Ops::load(p3 + i);
            const auto t02p = Ops::add(a0, a2);
            const auto t02m = Ops::sub(a0, a2);
            const auto t13p = Ops::add(a1, a3);
            const auto t13m = Ops::mul(Ops::sub(a1, a3), vim);
            Ops::store(p0 + i, Ops::add(t02p, t13p));
            Ops::store(p1 + i, Ops::mul(Ops::sub(t02p, t13p),
                                        Ops::load(tw1 + j0 + i)));
            Ops::store(p2 + i, Ops::mul(Ops::add(t02m, t13m),
                                        Ops::load(tw0 + j0 + i)));
            Ops::store(p3 + i, Ops::mul(Ops::sub(t13m, t02m),
                                        Ops::load(w3t)));
        }
        if (i < n)
            r4FwdScalar(p0 + i, p1 + i, p2 + i, p3 + i, tw0, tw1, im,
                        j0 + i, hs, n - i);
    }

    static void
    r8Fwd(F *p0, F *p1, F *p2, F *p3, F *p4, F *p5, F *p6, F *p7,
          const F *twa, const F *twb, const F *twc, size_t q8)
    {
        size_t j = 0;
        for (; j + L <= q8; j += L) {
            const auto a0 = Ops::load(p0 + j);
            const auto a1 = Ops::load(p1 + j);
            const auto a2 = Ops::load(p2 + j);
            const auto a3 = Ops::load(p3 + j);
            const auto a4 = Ops::load(p4 + j);
            const auto a5 = Ops::load(p5 + j);
            const auto a6 = Ops::load(p6 + j);
            const auto a7 = Ops::load(p7 + j);
            const auto u0 = Ops::add(a0, a4);
            const auto u4 =
                Ops::mul(Ops::sub(a0, a4), Ops::load(twa + j));
            const auto u1 = Ops::add(a1, a5);
            const auto u5 =
                Ops::mul(Ops::sub(a1, a5), Ops::load(twa + q8 + j));
            const auto u2 = Ops::add(a2, a6);
            const auto u6 = Ops::mul(Ops::sub(a2, a6),
                                     Ops::load(twa + 2 * q8 + j));
            const auto u3 = Ops::add(a3, a7);
            const auto u7 = Ops::mul(Ops::sub(a3, a7),
                                     Ops::load(twa + 3 * q8 + j));
            const auto wb0 = Ops::load(twb + j);
            const auto wb1 = Ops::load(twb + q8 + j);
            const auto v0 = Ops::add(u0, u2);
            const auto v2 = Ops::mul(Ops::sub(u0, u2), wb0);
            const auto v1 = Ops::add(u1, u3);
            const auto v3 = Ops::mul(Ops::sub(u1, u3), wb1);
            const auto v4 = Ops::add(u4, u6);
            const auto v6 = Ops::mul(Ops::sub(u4, u6), wb0);
            const auto v5 = Ops::add(u5, u7);
            const auto v7 = Ops::mul(Ops::sub(u5, u7), wb1);
            const auto wc = Ops::load(twc + j);
            Ops::store(p0 + j, Ops::add(v0, v1));
            Ops::store(p1 + j, Ops::mul(Ops::sub(v0, v1), wc));
            Ops::store(p2 + j, Ops::add(v2, v3));
            Ops::store(p3 + j, Ops::mul(Ops::sub(v2, v3), wc));
            Ops::store(p4 + j, Ops::add(v4, v5));
            Ops::store(p5 + j, Ops::mul(Ops::sub(v4, v5), wc));
            Ops::store(p6 + j, Ops::add(v6, v7));
            Ops::store(p7 + j, Ops::mul(Ops::sub(v6, v7), wc));
        }
        // Scalar tail at absolute indices: the twa/twb layouts are
        // q8-relative, so the tail cannot rebase the slab pointers.
        for (; j < q8; ++j) {
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
        t.scaleSpan = &scaleSpan;
        t.dotSpan = &dotSpanScalar<F>; // ABFT-only; scalar is exact
        t.hornerSpan = &hornerSpan;
        return t;
    }
};

} // namespace spankernels
} // namespace unintt

#endif // UNINTT_FIELD_KERNELS_SIMD_HH
