/**
 * @file
 * AVX-512F span-kernel backends: Goldilocks (8 x u64 lanes) and
 * BabyBear (16 x u32 Montgomery lanes). Compiled with -mavx512f; the
 * dispatch-layer CPUID probe gates execution, exactly like the AVX2
 * backend. Formulas are the same lane-wise mirrors of the scalar
 * field ops (see kernels_avx2.cc); the 512-bit ISA just replaces the
 * synthesized compare-and-mask corrections with native unsigned
 * compare masks and masked add/sub.
 */

#if defined(UNINTT_HAVE_AVX512)

#include <immintrin.h>

#include "field/kernels_simd.hh"
#include "field/kernels_tables.hh"

namespace unintt {
namespace spankernels {
namespace {

// ----- 64-bit words: 8 lanes (the word slots of both tables) ----------

// GCC 12 reports the unused pass-through operand of the shift and
// multiply intrinsics (_mm512_undefined_epi32) as uninitialized once
// they inline into the word loops (GCC PR 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
struct WordsAvx512
{
    static constexpr size_t kLanes = 8;

    static __m512i load(const void *p) { return _mm512_loadu_si512(p); }
    static void store(void *p, __m512i v) { _mm512_storeu_si512(p, v); }

    static __m512i
    set1(uint64_t x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }

    static __m512i
    ramp(uint64_t x)
    {
        return _mm512_add_epi64(set1(x),
                                _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    }

    static __m512i bxor(__m512i a, __m512i b) { return _mm512_xor_si512(a, b); }
    static __m512i add(__m512i a, __m512i b) { return _mm512_add_epi64(a, b); }

    template <int K>
    static __m512i
    srl(__m512i a)
    {
        return _mm512_srli_epi64(a, K);
    }

    /** Low 64 bits of a * b: lo*lo plus the cross products << 32. */
    static __m512i
    mul(__m512i a, __m512i b)
    {
        const __m512i cross = _mm512_add_epi64(
            _mm512_mul_epu32(_mm512_srli_epi64(a, 32), b),
            _mm512_mul_epu32(a, _mm512_srli_epi64(b, 32)));
        return _mm512_add_epi64(_mm512_mul_epu32(a, b),
                                _mm512_slli_epi64(cross, 32));
    }

    /**
     * Goldilocks::fromU64: x + (2^64 - p) wraps exactly when x >= p,
     * and then to x - p, the smaller of the two.
     */
    static __m512i
    canon(__m512i x)
    {
        return _mm512_min_epu64(
            x, _mm512_add_epi64(x, set1(Goldilocks::kEpsilon)));
    }
};
#pragma GCC diagnostic pop

// ----- Goldilocks: 8 lanes of u64 --------------------------------------

struct GlAvx512
{
    using Field = Goldilocks;
    using Words = WordsAvx512;
    static constexpr size_t kLanes = 8;

    static __m512i
    load(const Goldilocks *p)
    {
        return _mm512_loadu_si512(p);
    }

    static void
    store(Goldilocks *p, __m512i v)
    {
        _mm512_storeu_si512(p, v);
    }

    static __m512i
    bcast(Goldilocks x)
    {
        return _mm512_set1_epi64(
            static_cast<long long>(x.toU64()));
    }

    static __m512i
    modulus()
    {
        return _mm512_set1_epi64(
            static_cast<long long>(Goldilocks::kModulus));
    }

    static __m512i
    epsilon()
    {
        return _mm512_set1_epi64(
            static_cast<long long>(Goldilocks::kEpsilon));
    }

    static __m512i
    add(__m512i a, __m512i b)
    {
        __m512i s = _mm512_add_epi64(a, b);
        const __mmask8 carry = _mm512_cmplt_epu64_mask(s, a);
        s = _mm512_mask_add_epi64(s, carry, s, epsilon());
        const __mmask8 ge = _mm512_cmpge_epu64_mask(s, modulus());
        s = _mm512_mask_sub_epi64(s, ge, s, modulus());
        return s;
    }

    static __m512i
    sub(__m512i a, __m512i b)
    {
        __m512i d = _mm512_sub_epi64(a, b);
        const __mmask8 borrow = _mm512_cmplt_epu64_mask(a, b);
        d = _mm512_mask_sub_epi64(d, borrow, d, epsilon());
        return d;
    }

    static __m512i
    reduce(__m512i hi, __m512i lo)
    {
        const __m512i lo32 = epsilon();
        const __m512i hi_hi = _mm512_srli_epi64(hi, 32);
        const __m512i hi_lo = _mm512_and_si512(hi, lo32);
        __m512i t0 = _mm512_sub_epi64(lo, hi_hi);
        const __mmask8 borrow = _mm512_cmplt_epu64_mask(lo, hi_hi);
        t0 = _mm512_mask_sub_epi64(t0, borrow, t0, epsilon());
        const __m512i t1 = _mm512_sub_epi64(
            _mm512_slli_epi64(hi_lo, 32), hi_lo);
        __m512i res = _mm512_add_epi64(t0, t1);
        const __mmask8 carry = _mm512_cmplt_epu64_mask(res, t0);
        res = _mm512_mask_add_epi64(res, carry, res, epsilon());
        const __mmask8 ge = _mm512_cmpge_epu64_mask(res, modulus());
        res = _mm512_mask_sub_epi64(res, ge, res, modulus());
        return res;
    }

    static __m512i
    mul(__m512i x, __m512i y)
    {
        const __m512i lo32 = epsilon();
        const __m512i xh = _mm512_srli_epi64(x, 32);
        const __m512i yh = _mm512_srli_epi64(y, 32);
        const __m512i ll = _mm512_mul_epu32(x, y);
        const __m512i lh = _mm512_mul_epu32(x, yh);
        const __m512i hl = _mm512_mul_epu32(xh, y);
        const __m512i hh = _mm512_mul_epu32(xh, yh);
        const __m512i t = _mm512_add_epi64(
            _mm512_srli_epi64(ll, 32),
            _mm512_add_epi64(_mm512_and_si512(lh, lo32),
                             _mm512_and_si512(hl, lo32)));
        const __m512i p_lo = _mm512_or_si512(
            _mm512_and_si512(ll, lo32), _mm512_slli_epi64(t, 32));
        const __m512i p_hi = _mm512_add_epi64(
            hh, _mm512_add_epi64(
                    _mm512_srli_epi64(lh, 32),
                    _mm512_add_epi64(_mm512_srli_epi64(hl, 32),
                                     _mm512_srli_epi64(t, 32))));
        return reduce(p_hi, p_lo);
    }

    /**
     * 8 x 8 transpose of v[0..8): lane k of v[r] moves to lane r of
     * v[k]. Pairs of rows interleave (unpack), then quarters
     * (permutex2var), then halves (shuffle_i64x2). The loops unroll
     * fully, so every index is a constant and no row leaves its
     * register.
     */
    static void
    transpose(__m512i *v)
    {
        __m512i t[8], u[8];
#pragma GCC unroll 16
        for (int r = 0; r < 8; r += 2) {
            t[r] = _mm512_unpacklo_epi64(v[r], v[r + 1]);
            t[r + 1] = _mm512_unpackhi_epi64(v[r], v[r + 1]);
        }
        // u[k] (k < 4) gathers columns k and k + 4 of rows 0-3, u[4 + k]
        // those of rows 4-7.
        const __m512i even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
        const __m512i odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
#pragma GCC unroll 16
        for (int g = 0; g < 8; g += 4) {
            u[g] = _mm512_permutex2var_epi64(t[g], even, t[g + 2]);
            u[g + 2] = _mm512_permutex2var_epi64(t[g], odd, t[g + 2]);
            u[g + 1] = _mm512_permutex2var_epi64(t[g + 1], even, t[g + 3]);
            u[g + 3] = _mm512_permutex2var_epi64(t[g + 1], odd, t[g + 3]);
        }
#pragma GCC unroll 16
        for (int k = 0; k < 4; ++k) {
            v[k] = _mm512_shuffle_i64x2(u[k], u[4 + k], 0x44);
            v[k + 4] = _mm512_shuffle_i64x2(u[k], u[4 + k], 0xee);
        }
    }
};

// ----- BabyBear: 16 lanes of u32 Montgomery residues -------------------

constexpr uint32_t
bbNegInv()
{
    uint32_t x = 1;
    for (int i = 0; i < 5; ++i)
        x *= 2u - BabyBear::kModulus * x;
    return ~x + 1u;
}

struct BbAvx512
{
    using Field = BabyBear;
    using Words = WordsAvx512;
    static constexpr size_t kLanes = 16;

    static __m512i
    load(const BabyBear *p)
    {
        return _mm512_loadu_si512(p);
    }

    static void
    store(BabyBear *p, __m512i v)
    {
        _mm512_storeu_si512(p, v);
    }

    static __m512i
    bcast(BabyBear x)
    {
        uint32_t raw;
        static_assert(sizeof(BabyBear) == sizeof(uint32_t));
        __builtin_memcpy(&raw, &x, sizeof(raw));
        return _mm512_set1_epi32(static_cast<int>(raw));
    }

    static __m512i
    modulus32()
    {
        return _mm512_set1_epi32(
            static_cast<int>(BabyBear::kModulus));
    }

    static __m512i
    add(__m512i a, __m512i b)
    {
        const __m512i s = _mm512_add_epi32(a, b);
        return _mm512_min_epu32(s, _mm512_sub_epi32(s, modulus32()));
    }

    static __m512i
    sub(__m512i a, __m512i b)
    {
        const __m512i d = _mm512_sub_epi32(a, b);
        return _mm512_min_epu32(d, _mm512_add_epi32(d, modulus32()));
    }

    static __m512i
    redcHalf(__m512i a, __m512i b)
    {
        const __m512i np = _mm512_set1_epi64(
            static_cast<long long>(bbNegInv()));
        const __m512i p64 = _mm512_set1_epi64(
            static_cast<long long>(BabyBear::kModulus));
        const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
        const __m512i t = _mm512_mul_epu32(a, b);
        const __m512i m =
            _mm512_and_si512(_mm512_mul_epu32(t, np), lo32);
        return _mm512_srli_epi64(
            _mm512_add_epi64(t, _mm512_mul_epu32(m, p64)), 32);
    }

    static __m512i
    mul(__m512i a, __m512i b)
    {
        const __m512i ao = _mm512_srli_epi64(a, 32);
        const __m512i bo = _mm512_srli_epi64(b, 32);
        const __m512i ue = redcHalf(a, b);
        const __m512i uo = redcHalf(ao, bo);
        const __m512i r =
            _mm512_or_si512(ue, _mm512_slli_epi64(uo, 32));
        return _mm512_min_epu32(r, _mm512_sub_epi32(r, modulus32()));
    }

    // GCC 12 reports the unused pass-through operand of these
    // intrinsics (an all-ones mask) as uninitialized here (GCC PR
    // 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
    /**
     * 16 x 16 transpose of v[0..16): lane k of v[r] moves to lane r of
     * v[k]. 32-bit then 64-bit unpacks leave u[4g + k] holding column
     * 4q + k of rows 4g .. 4g + 3 in 128-bit lane q; two rounds of
     * shuffle_i32x4 then collect lane q of u[k], u[4 + k], u[8 + k]
     * and u[12 + k] into v[4q + k].
     */
    static void
    transpose(__m512i *v)
    {
        __m512i t[16], u[16];
#pragma GCC unroll 16
        for (int r = 0; r < 16; r += 2) {
            t[r] = _mm512_unpacklo_epi32(v[r], v[r + 1]);
            t[r + 1] = _mm512_unpackhi_epi32(v[r], v[r + 1]);
        }
#pragma GCC unroll 16
        for (int g = 0; g < 16; g += 4) {
            u[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
            u[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
            u[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
            u[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
        }
#pragma GCC unroll 16
        for (int k = 0; k < 4; ++k) {
            // Lanes 0 and 2 (x), 1 and 3 (y) of rows 0-7, then 8-15.
            const __m512i x0 = _mm512_shuffle_i32x4(u[k], u[4 + k], 0x88);
            const __m512i y0 = _mm512_shuffle_i32x4(u[k], u[4 + k], 0xdd);
            const __m512i x1 =
                _mm512_shuffle_i32x4(u[8 + k], u[12 + k], 0x88);
            const __m512i y1 =
                _mm512_shuffle_i32x4(u[8 + k], u[12 + k], 0xdd);
            v[k] = _mm512_shuffle_i32x4(x0, x1, 0x88);
            v[8 + k] = _mm512_shuffle_i32x4(x0, x1, 0xdd);
            v[4 + k] = _mm512_shuffle_i32x4(y0, y1, 0x88);
            v[12 + k] = _mm512_shuffle_i32x4(y0, y1, 0xdd);
        }
    }
#pragma GCC diagnostic pop
};

} // namespace

const FieldKernels<Goldilocks> &
goldilocksAvx512Table()
{
    static const FieldKernels<Goldilocks> t =
        VecKernels<GlAvx512>::table(IsaPath::Avx512, "avx512");
    return t;
}

const FieldKernels<BabyBear> &
babybearAvx512Table()
{
    static const FieldKernels<BabyBear> t =
        VecKernels<BbAvx512>::table(IsaPath::Avx512, "avx512");
    return t;
}

} // namespace spankernels
} // namespace unintt

#endif // UNINTT_HAVE_AVX512
