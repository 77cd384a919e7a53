/**
 * @file
 * AVX2 span-kernel backends: Goldilocks (4 x u64 lanes) and BabyBear
 * (8 x u32 Montgomery lanes). This translation unit is compiled with
 * -mavx2 and must only execute after the dispatch-layer CPUID probe
 * confirms AVX2 — the router guarantees that.
 *
 * Every lane op mirrors the scalar formula of its field exactly:
 *
 *  - Goldilocks add/sub/reduce use the same masked epsilon/modulus
 *    corrections as goldilocks.hh, with unsigned 64-bit compares
 *    synthesized from signed ones by sign-bit flips; the 64x64->128
 *    product is a 32-bit schoolbook (vpmuludq) whose middle column
 *    never overflows 64 bits ((2^32-1)^2 + 2*(2^32-1) < 2^64).
 *  - BabyBear stays in Montgomery form; the conditional +-p
 *    corrections become unsigned min tricks (min(s, s-p) == branchy
 *    subtract for s < 2p), and the REDC is the identical
 *    m = t*(-p^-1) mod 2^32; (t + m*p) >> 32 sequence on 64-bit even
 *    and odd sublanes.
 *
 * Identical formulas on canonical representations give byte-identical
 * results — the differential matrix in tests/test_differential.cc
 * enforces this against the scalar table.
 */

#if defined(UNINTT_HAVE_AVX2)

#include <immintrin.h>

#include "field/kernels_simd.hh"
#include "field/kernels_tables.hh"

namespace unintt {
namespace spankernels {
namespace {

struct WordsAvx2;

// ----- Goldilocks: 4 lanes of u64 --------------------------------------

struct GlAvx2
{
    using Field = Goldilocks;
    using Words = WordsAvx2;
    static constexpr size_t kLanes = 4;

    static __m256i
    load(const Goldilocks *p)
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(Goldilocks *p, __m256i v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static __m256i
    bcast(Goldilocks x)
    {
        return _mm256_set1_epi64x(
            static_cast<long long>(x.toU64()));
    }

    static __m256i
    modulus()
    {
        return _mm256_set1_epi64x(
            static_cast<long long>(Goldilocks::kModulus));
    }

    static __m256i
    epsilon()
    {
        return _mm256_set1_epi64x(
            static_cast<long long>(Goldilocks::kEpsilon));
    }

    /** Lane mask of unsigned a < b (sign-flip + signed compare). */
    static __m256i
    cmpltU64(__m256i a, __m256i b)
    {
        const __m256i sign = _mm256_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        return _mm256_cmpgt_epi64(_mm256_xor_si256(b, sign),
                                  _mm256_xor_si256(a, sign));
    }

    /** Lane mask of unsigned a >= b. */
    static __m256i
    cmpgeU64(__m256i a, __m256i b)
    {
        return _mm256_xor_si256(cmpltU64(a, b),
                                _mm256_set1_epi64x(-1));
    }

    static __m256i
    add(__m256i a, __m256i b)
    {
        __m256i s = _mm256_add_epi64(a, b);
        s = _mm256_add_epi64(
            s, _mm256_and_si256(epsilon(), cmpltU64(s, a)));
        s = _mm256_sub_epi64(
            s, _mm256_and_si256(modulus(), cmpgeU64(s, modulus())));
        return s;
    }

    static __m256i
    sub(__m256i a, __m256i b)
    {
        __m256i d = _mm256_sub_epi64(a, b);
        d = _mm256_sub_epi64(
            d, _mm256_and_si256(epsilon(), cmpltU64(a, b)));
        return d;
    }

    /** reduce128 of goldilocks.hh, lane-wise on (hi, lo) halves. */
    static __m256i
    reduce(__m256i hi, __m256i lo)
    {
        const __m256i lo32 = epsilon(); // 0xffffffff mask == epsilon
        const __m256i hi_hi = _mm256_srli_epi64(hi, 32);
        const __m256i hi_lo = _mm256_and_si256(hi, lo32);
        __m256i t0 = _mm256_sub_epi64(lo, hi_hi);
        t0 = _mm256_sub_epi64(
            t0, _mm256_and_si256(epsilon(), cmpltU64(lo, hi_hi)));
        const __m256i t1 = _mm256_sub_epi64(
            _mm256_slli_epi64(hi_lo, 32), hi_lo);
        __m256i res = _mm256_add_epi64(t0, t1);
        res = _mm256_add_epi64(
            res, _mm256_and_si256(epsilon(), cmpltU64(res, t0)));
        res = _mm256_sub_epi64(
            res,
            _mm256_and_si256(modulus(), cmpgeU64(res, modulus())));
        return res;
    }

    static __m256i
    mul(__m256i x, __m256i y)
    {
        const __m256i lo32 = epsilon();
        const __m256i xh = _mm256_srli_epi64(x, 32);
        const __m256i yh = _mm256_srli_epi64(y, 32);
        const __m256i ll = _mm256_mul_epu32(x, y);
        const __m256i lh = _mm256_mul_epu32(x, yh);
        const __m256i hl = _mm256_mul_epu32(xh, y);
        const __m256i hh = _mm256_mul_epu32(xh, yh);
        // Middle column plus the low product's high half; fits u64.
        const __m256i t = _mm256_add_epi64(
            _mm256_srli_epi64(ll, 32),
            _mm256_add_epi64(_mm256_and_si256(lh, lo32),
                             _mm256_and_si256(hl, lo32)));
        const __m256i p_lo = _mm256_or_si256(
            _mm256_and_si256(ll, lo32), _mm256_slli_epi64(t, 32));
        const __m256i p_hi = _mm256_add_epi64(
            hh, _mm256_add_epi64(
                    _mm256_srli_epi64(lh, 32),
                    _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                                     _mm256_srli_epi64(t, 32))));
        return reduce(p_hi, p_lo);
    }

    /**
     * 4 x 4 transpose of v[0..4): lane k of v[r] moves to lane r of
     * v[k]. Pairs of rows interleave, then 128-bit halves swap.
     */
    static void
    transpose(__m256i *v)
    {
        const __m256i t0 = _mm256_unpacklo_epi64(v[0], v[1]);
        const __m256i t1 = _mm256_unpackhi_epi64(v[0], v[1]);
        const __m256i t2 = _mm256_unpacklo_epi64(v[2], v[3]);
        const __m256i t3 = _mm256_unpackhi_epi64(v[2], v[3]);
        v[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
        v[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
        v[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
        v[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
    }
};

// ----- 64-bit words: 4 lanes (the word slots of both tables) ----------

struct WordsAvx2
{
    static constexpr size_t kLanes = 4;

    static __m256i
    load(const void *p)
    {
        return _mm256_loadu_si256(static_cast<const __m256i *>(p));
    }

    static void
    store(void *p, __m256i v)
    {
        _mm256_storeu_si256(static_cast<__m256i *>(p), v);
    }

    static __m256i
    set1(uint64_t x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }

    static __m256i
    ramp(uint64_t x)
    {
        return _mm256_add_epi64(set1(x), _mm256_setr_epi64x(0, 1, 2, 3));
    }

    static __m256i bxor(__m256i a, __m256i b) { return _mm256_xor_si256(a, b); }
    static __m256i add(__m256i a, __m256i b) { return _mm256_add_epi64(a, b); }

    template <int K>
    static __m256i
    srl(__m256i a)
    {
        return _mm256_srli_epi64(a, K);
    }

    /** Low 64 bits of a * b: lo*lo plus the cross products << 32. */
    static __m256i
    mul(__m256i a, __m256i b)
    {
        const __m256i cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
            _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
        return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                                _mm256_slli_epi64(cross, 32));
    }

    /** Goldilocks::fromU64: subtract p where x >= p. */
    static __m256i
    canon(__m256i x)
    {
        const __m256i p = GlAvx2::modulus();
        return _mm256_sub_epi64(
            x, _mm256_and_si256(p, GlAvx2::cmpgeU64(x, p)));
    }
};

// ----- BabyBear: 8 lanes of u32 Montgomery residues --------------------

/** -p^-1 mod 2^32 (same Newton iteration as babybear.hh). */
constexpr uint32_t
bbNegInv()
{
    uint32_t x = 1;
    for (int i = 0; i < 5; ++i)
        x *= 2u - BabyBear::kModulus * x;
    return ~x + 1u;
}

struct BbAvx2
{
    using Field = BabyBear;
    using Words = WordsAvx2;
    static constexpr size_t kLanes = 8;

    static __m256i
    load(const BabyBear *p)
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(BabyBear *p, __m256i v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static __m256i
    bcast(BabyBear x)
    {
        // Broadcast the raw Montgomery representation.
        uint32_t raw;
        static_assert(sizeof(BabyBear) == sizeof(uint32_t));
        __builtin_memcpy(&raw, &x, sizeof(raw));
        return _mm256_set1_epi32(static_cast<int>(raw));
    }

    static __m256i
    modulus32()
    {
        return _mm256_set1_epi32(
            static_cast<int>(BabyBear::kModulus));
    }

    static __m256i
    add(__m256i a, __m256i b)
    {
        // s < 2p < 2^32; min(s, s - p) is the conditional subtract.
        const __m256i s = _mm256_add_epi32(a, b);
        return _mm256_min_epu32(s, _mm256_sub_epi32(s, modulus32()));
    }

    static __m256i
    sub(__m256i a, __m256i b)
    {
        // a >= b: d < p and d + p < 2^32 keeps min at d;
        // a < b: d wraps high and d + p wraps to the borrowed value.
        const __m256i d = _mm256_sub_epi32(a, b);
        return _mm256_min_epu32(d, _mm256_add_epi32(d, modulus32()));
    }

    /**
     * Montgomery product of the even 32-bit sublanes (values in the
     * low half of each 64-bit lane); result < 2p in the low half.
     */
    static __m256i
    redcHalf(__m256i a, __m256i b)
    {
        const __m256i np = _mm256_set1_epi64x(
            static_cast<long long>(bbNegInv()));
        const __m256i p64 = _mm256_set1_epi64x(
            static_cast<long long>(BabyBear::kModulus));
        const __m256i lo32 =
            _mm256_set1_epi64x(0xffffffffLL);
        const __m256i t = _mm256_mul_epu32(a, b);
        const __m256i m =
            _mm256_and_si256(_mm256_mul_epu32(t, np), lo32);
        return _mm256_srli_epi64(
            _mm256_add_epi64(t, _mm256_mul_epu32(m, p64)), 32);
    }

    static __m256i
    mul(__m256i a, __m256i b)
    {
        const __m256i ao = _mm256_srli_epi64(a, 32);
        const __m256i bo = _mm256_srli_epi64(b, 32);
        const __m256i ue = redcHalf(a, b);
        const __m256i uo = redcHalf(ao, bo);
        const __m256i r =
            _mm256_or_si256(ue, _mm256_slli_epi64(uo, 32));
        // One conditional subtract brings every lane below p.
        return _mm256_min_epu32(r, _mm256_sub_epi32(r, modulus32()));
    }

    /**
     * 8 x 8 transpose of v[0..8): lane k of v[r] moves to lane r of
     * v[k]. 32-bit then 64-bit unpacks leave u[4g + k] holding column
     * 4q + k of rows 4g .. 4g + 3 in 128-bit half q; a half swap
     * joins the two row groups. The loops unroll fully, which keeps
     * the rows in registers.
     */
    static void
    transpose(__m256i *v)
    {
        __m256i t[8], u[8];
#pragma GCC unroll 16
        for (int r = 0; r < 8; r += 2) {
            t[r] = _mm256_unpacklo_epi32(v[r], v[r + 1]);
            t[r + 1] = _mm256_unpackhi_epi32(v[r], v[r + 1]);
        }
#pragma GCC unroll 16
        for (int g = 0; g < 8; g += 4) {
            u[g] = _mm256_unpacklo_epi64(t[g], t[g + 2]);
            u[g + 1] = _mm256_unpackhi_epi64(t[g], t[g + 2]);
            u[g + 2] = _mm256_unpacklo_epi64(t[g + 1], t[g + 3]);
            u[g + 3] = _mm256_unpackhi_epi64(t[g + 1], t[g + 3]);
        }
#pragma GCC unroll 16
        for (int k = 0; k < 4; ++k) {
            v[k] = _mm256_permute2x128_si256(u[k], u[4 + k], 0x20);
            v[4 + k] = _mm256_permute2x128_si256(u[k], u[4 + k], 0x31);
        }
    }
};

} // namespace

const FieldKernels<Goldilocks> &
goldilocksAvx2Table()
{
    static const FieldKernels<Goldilocks> t =
        VecKernels<GlAvx2>::table(IsaPath::Avx2, "avx2");
    return t;
}

const FieldKernels<BabyBear> &
babybearAvx2Table()
{
    static const FieldKernels<BabyBear> t =
        VecKernels<BbAvx2>::table(IsaPath::Avx2, "avx2");
    return t;
}

} // namespace spankernels
} // namespace unintt

#endif // UNINTT_HAVE_AVX2
