/**
 * @file
 * Generic 256-bit prime field in Montgomery representation (R = 2^256),
 * parameterized by a Params policy supplying the modulus and group
 * constants. BN254's scalar field Fr (NTT domain of pairing-based ZKP
 * systems) and base field Fq (curve coordinates for MSM) are the two
 * instantiations; see bn254.hh.
 *
 * Multiplication uses the CIOS (coarsely integrated operand scanning)
 * Montgomery algorithm. All derived constants (-p^-1 mod 2^64 and
 * R^2 mod p) are computed at compile time from the modulus alone.
 */

#ifndef UNINTT_FIELD_MONTFIELD256_HH
#define UNINTT_FIELD_MONTFIELD256_HH

#include <cstdint>
#include <string>

#include "field/field_traits.hh"
#include "field/u256.hh"
#include "util/logging.hh"

namespace unintt {

/**
 * A prime-field element in Montgomery form.
 *
 * @tparam Params policy providing:
 *   - static constexpr U256 kModulus  (odd prime < 2^255)
 *   - static constexpr unsigned kTwoAdicity
 *   - static constexpr uint64_t kGenerator (multiplicative generator)
 *   - static constexpr const char *kName
 */
template <typename Params>
class MontField256
{
  public:
    /** Largest k such that 2^k divides p - 1. */
    static constexpr unsigned kTwoAdicity = Params::kTwoAdicity;
    /** Storage size used by the performance model. */
    static constexpr size_t kBytes = 32;
    /** Field name for reports. */
    static constexpr const char *kName = Params::kName;

    /** Zero-initialized element. */
    constexpr MontField256() = default;

    /** Embed a small integer into the field. */
    static constexpr MontField256
    fromU64(uint64_t x)
    {
        return fromU256(U256(x));
    }

    /** Embed a canonical 256-bit integer (must be < p). */
    static constexpr MontField256
    fromU256(const U256 &x)
    {
        MontField256 e;
        e.mont_ = montMul(x, r2());
        return e;
    }

    /** The additive identity. */
    static constexpr MontField256 zero() { return MontField256(); }

    /** The multiplicative identity. */
    static constexpr MontField256 one() { return fromU64(1); }

    /** Canonical (non-Montgomery) representative in [0, p). */
    constexpr U256
    value() const
    {
        // montMul by 1 strips one factor of R.
        return montMul(mont_, U256(1));
    }

    constexpr MontField256
    operator+(const MontField256 &o) const
    {
        MontField256 r;
        uint64_t carry = addCarry(mont_, o.mont_, r.mont_);
        if (carry || geq(r.mont_, Params::kModulus)) {
            U256 reduced;
            subBorrow(r.mont_, Params::kModulus, reduced);
            r.mont_ = reduced;
        }
        return r;
    }

    constexpr MontField256
    operator-(const MontField256 &o) const
    {
        MontField256 r;
        uint64_t borrow = subBorrow(mont_, o.mont_, r.mont_);
        if (borrow) {
            U256 fixed;
            addCarry(r.mont_, Params::kModulus, fixed);
            r.mont_ = fixed;
        }
        return r;
    }

    constexpr MontField256
    operator-() const
    {
        MontField256 r;
        if (!mont_.isZero())
            subBorrow(Params::kModulus, mont_, r.mont_);
        return r;
    }

    constexpr MontField256
    operator*(const MontField256 &o) const
    {
        MontField256 r;
        r.mont_ = montMul(mont_, o.mont_);
        return r;
    }

    MontField256 &
    operator+=(const MontField256 &o)
    {
        return *this = *this + o;
    }
    MontField256 &
    operator-=(const MontField256 &o)
    {
        return *this = *this - o;
    }
    MontField256 &
    operator*=(const MontField256 &o)
    {
        return *this = *this * o;
    }

    constexpr bool
    operator==(const MontField256 &o) const
    {
        return mont_ == o.mont_;
    }
    constexpr bool
    operator!=(const MontField256 &o) const
    {
        return mont_ != o.mont_;
    }

    /** True iff the element is zero. */
    constexpr bool isZero() const { return mont_.isZero(); }

    /** this^exp for a 64-bit exponent. */
    MontField256
    pow(uint64_t exp) const
    {
        return pow(U256(exp));
    }

    /** this^exp for a 256-bit exponent, square-and-multiply. */
    MontField256
    pow(const U256 &exp) const
    {
        MontField256 base = *this;
        MontField256 acc = one();
        int top = exp.highestBit();
        for (int i = 0; i <= top; ++i) {
            if (exp.bit(static_cast<unsigned>(i)))
                acc *= base;
            base *= base;
        }
        return acc;
    }

    /** Multiplicative inverse via Fermat; panics on zero. */
    MontField256
    inverse() const
    {
        UNINTT_ASSERT(!isZero(), "inverse of zero");
        U256 pm2;
        subBorrow(Params::kModulus, U256(2), pm2);
        return pow(pm2);
    }

    /**
     * Primitive 2^log_n-th root of unity.
     * @param log_n must be <= kTwoAdicity.
     */
    static MontField256
    rootOfUnity(unsigned log_n)
    {
        requireTwoAdicSize<MontField256>(log_n);
        // (p - 1) >> kTwoAdicity
        U256 exp = Params::kModulus;
        exp.limb[0] -= 1; // p is odd, no borrow
        for (unsigned i = 0; i < kTwoAdicity; ++i) {
            for (int l = 0; l < 3; ++l)
                exp.limb[l] = (exp.limb[l] >> 1) | (exp.limb[l + 1] << 63);
            exp.limb[3] >>= 1;
        }
        MontField256 root = multiplicativeGenerator().pow(exp);
        for (unsigned i = log_n; i < kTwoAdicity; ++i)
            root *= root;
        return root;
    }

    /** Generator of the full multiplicative group, for coset NTTs. */
    static MontField256
    multiplicativeGenerator()
    {
        return fromU64(Params::kGenerator);
    }

    /** Hex string of the canonical value. */
    std::string toString() const { return value().toHexString(); }

  private:
    /** -p^-1 mod 2^64 by Newton iteration (p odd). */
    static constexpr uint64_t
    negInv()
    {
        uint64_t p0 = Params::kModulus.limb[0];
        uint64_t x = 1;
        for (int i = 0; i < 6; ++i) // 1 -> 2 -> 4 -> ... -> 64 bits
            x *= 2u - p0 * x;
        return ~x + 1u;
    }

    /** R^2 mod p (R = 2^256) by 512 modular doublings of 1. */
    static constexpr U256
    r2()
    {
        U256 r(1);
        for (int i = 0; i < 512; ++i)
            r = doubleMod(r, Params::kModulus);
        return r;
    }

    /** CIOS Montgomery multiplication: returns a*b*R^-1 mod p. */
    static constexpr U256
    montMul(const U256 &a, const U256 &b)
    {
        constexpr uint64_t np = negInv();
        const U256 &p = Params::kModulus;

        uint64_t t[6] = {0, 0, 0, 0, 0, 0};
        for (int i = 0; i < 4; ++i) {
            // t += a[i] * b
            uint64_t carry = 0;
            for (int j = 0; j < 4; ++j) {
                unsigned __int128 cur =
                    static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] +
                    t[j] + carry;
                t[j] = static_cast<uint64_t>(cur);
                carry = static_cast<uint64_t>(cur >> 64);
            }
            {
                unsigned __int128 cur =
                    static_cast<unsigned __int128>(t[4]) + carry;
                t[4] = static_cast<uint64_t>(cur);
                t[5] = static_cast<uint64_t>(cur >> 64);
            }

            // t += m * p; t >>= 64  (m chosen so t[0] becomes zero)
            uint64_t m = t[0] * np;
            unsigned __int128 cur =
                static_cast<unsigned __int128>(t[0]) +
                static_cast<unsigned __int128>(m) * p.limb[0];
            carry = static_cast<uint64_t>(cur >> 64);
            for (int j = 1; j < 4; ++j) {
                cur = static_cast<unsigned __int128>(t[j]) +
                      static_cast<unsigned __int128>(m) * p.limb[j] + carry;
                t[j - 1] = static_cast<uint64_t>(cur);
                carry = static_cast<uint64_t>(cur >> 64);
            }
            cur = static_cast<unsigned __int128>(t[4]) + carry;
            t[3] = static_cast<uint64_t>(cur);
            t[4] = t[5] + static_cast<uint64_t>(cur >> 64);
            t[5] = 0;
        }

        U256 r(t[0], t[1], t[2], t[3]);
        if (t[4] || geq(r, p)) {
            U256 reduced;
            subBorrow(r, p, reduced);
            r = reduced;
        }
        return r;
    }

    U256 mont_;
};

} // namespace unintt

#endif // UNINTT_FIELD_MONTFIELD256_HH
