/**
 * @file
 * Short Weierstrass curve arithmetic y^2 = x^3 + b, templated over the
 * coordinate field and the curve constants (BN254 G1 over Fq
 * instantiates it in msm/curve.hh). Points use Jacobian projective
 * coordinates; formulas
 * follow the Explicit-Formulas Database (dbl-2009-l, add-2007-bl,
 * madd-2007-bl), all valid for a = 0 curves.
 *
 * @tparam Fp     coordinate field.
 * @tparam Params policy providing:
 *   - static Fp b()                  curve constant;
 *   - static AffinePt<Fp, Params> basePoint()  a fixed curve point.
 */

#ifndef UNINTT_MSM_WEIERSTRASS_HH
#define UNINTT_MSM_WEIERSTRASS_HH

#include "field/u256.hh"

namespace unintt {

template <typename Fp, typename Params>
struct JacobianPt;

/** A curve point in affine coordinates; (0, 0) encodes infinity. */
template <typename Fp, typename Params>
struct AffinePt
{
    Fp x;
    Fp y;

    /** The point at infinity. */
    static AffinePt
    infinity()
    {
        return AffinePt{Fp::zero(), Fp::zero()};
    }

    /** The curve's fixed base point. */
    static AffinePt generator() { return Params::basePoint(); }

    /** True iff this encodes the point at infinity. */
    bool isInfinity() const { return x.isZero() && y.isZero(); }

    /** Curve membership (infinity counts as a member). */
    bool
    isOnCurve() const
    {
        if (isInfinity())
            return true;
        return y * y == x * x * x + Params::b();
    }

    bool
    operator==(const AffinePt &o) const
    {
        return x == o.x && y == o.y;
    }
};

/** A curve point in Jacobian coordinates (Z == 0 is infinity). */
template <typename Fp, typename Params>
struct JacobianPt
{
    Fp x;
    Fp y;
    Fp z;

    using Affine = AffinePt<Fp, Params>;

    /** The point at infinity. */
    static JacobianPt
    infinity()
    {
        return JacobianPt{Fp::one(), Fp::one(), Fp::zero()};
    }

    /** Lift an affine point. */
    static JacobianPt
    fromAffine(const Affine &p)
    {
        if (p.isInfinity())
            return infinity();
        return JacobianPt{p.x, p.y, Fp::one()};
    }

    /** The curve's fixed base point. */
    static JacobianPt
    generator()
    {
        return fromAffine(Affine::generator());
    }

    /** True iff this is the point at infinity. */
    bool isInfinity() const { return z.isZero(); }

    /** Point doubling (dbl-2009-l, a = 0). */
    JacobianPt
    dbl() const
    {
        if (isInfinity())
            return *this;
        Fp a = x * x;
        Fp b = y * y;
        Fp c = b * b;
        Fp xb = x + b;
        Fp d = xb * xb - a - c;
        d = d + d;
        Fp e = a + a + a;
        Fp f = e * e;
        JacobianPt r;
        r.x = f - (d + d);
        Fp c8 = c + c;
        c8 = c8 + c8;
        c8 = c8 + c8;
        r.y = e * (d - r.x) - c8;
        Fp yz = y * z;
        r.z = yz + yz;
        return r;
    }

    /** Full Jacobian addition (add-2007-bl). */
    JacobianPt
    add(const JacobianPt &o) const
    {
        if (isInfinity())
            return o;
        if (o.isInfinity())
            return *this;
        Fp z1z1 = z * z;
        Fp z2z2 = o.z * o.z;
        Fp u1 = x * z2z2;
        Fp u2 = o.x * z1z1;
        Fp s1 = y * o.z * z2z2;
        Fp s2 = o.y * z * z1z1;
        Fp h = u2 - u1;
        Fp rr = s2 - s1;
        if (h.isZero()) {
            if (rr.isZero())
                return dbl();
            return infinity();
        }
        Fp h2 = h + h;
        Fp i = h2 * h2;
        Fp j = h * i;
        rr = rr + rr;
        Fp v = u1 * i;
        JacobianPt out;
        out.x = rr * rr - j - (v + v);
        Fp s1j = s1 * j;
        out.y = rr * (v - out.x) - (s1j + s1j);
        Fp zs = z + o.z;
        out.z = (zs * zs - z1z1 - z2z2) * h;
        return out;
    }

    /** Mixed addition with an affine point (madd-2007-bl). */
    JacobianPt
    addAffine(const Affine &o) const
    {
        if (o.isInfinity())
            return *this;
        if (isInfinity())
            return fromAffine(o);
        Fp z1z1 = z * z;
        Fp u2 = o.x * z1z1;
        Fp s2 = o.y * z * z1z1;
        Fp h = u2 - x;
        Fp rr = s2 - y;
        if (h.isZero()) {
            if (rr.isZero())
                return dbl();
            return infinity();
        }
        Fp hh = h * h;
        Fp i = hh + hh;
        i = i + i;
        Fp j = h * i;
        rr = rr + rr;
        Fp v = x * i;
        JacobianPt out;
        out.x = rr * rr - j - (v + v);
        Fp yj = y * j;
        out.y = rr * (v - out.x) - (yj + yj);
        Fp zh = z + h;
        out.z = zh * zh - z1z1 - hh;
        return out;
    }

    /** Additive inverse. */
    JacobianPt
    neg() const
    {
        return JacobianPt{x, -y, z};
    }

    /** Scalar multiplication by a 256-bit scalar, double-and-add. */
    JacobianPt
    scalarMul(const U256 &k) const
    {
        JacobianPt acc = infinity();
        int top = k.highestBit();
        for (int i = top; i >= 0; --i) {
            acc = acc.dbl();
            if (k.bit(static_cast<unsigned>(i)))
                acc = acc.add(*this);
        }
        return acc;
    }

    /** Normalize to affine (one field inversion). */
    Affine
    toAffine() const
    {
        if (isInfinity())
            return Affine::infinity();
        Fp zinv = z.inverse();
        Fp zinv2 = zinv * zinv;
        return Affine{x * zinv2, y * zinv2 * zinv};
    }

    /** Projective equality (same affine point). */
    bool
    operator==(const JacobianPt &o) const
    {
        if (isInfinity() || o.isInfinity())
            return isInfinity() == o.isInfinity();
        Fp z1z1 = z * z;
        Fp z2z2 = o.z * o.z;
        if (x * z2z2 != o.x * z1z1)
            return false;
        return y * o.z * z2z2 == o.y * z * z1z1;
    }
};

} // namespace unintt

#endif // UNINTT_MSM_WEIERSTRASS_HH
