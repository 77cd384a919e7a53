/**
 * @file
 * The BN254 (alt_bn128) G1 group: the short Weierstrass curve
 * y^2 = x^3 + 3 over Fq with the standard generator (1, 2). This is
 * the curve Groth16/PLONK deployments commit to (Ethereum precompiles
 * 0x06/0x07) and the substrate of the MSM engine in pippenger.hh.
 * The arithmetic lives in the shared template (msm/weierstrass.hh).
 * G2 (the sextic twist over the quadratic extension of Fq) is priced,
 * not computed: MsmEngine::analyticRun scales the G1 costs by the
 * kG2* constants below.
 */

#ifndef UNINTT_MSM_CURVE_HH
#define UNINTT_MSM_CURVE_HH

#include "field/bn254.hh"
#include "msm/weierstrass.hh"

namespace unintt {

/** Curve constants of BN254 G1. */
struct G1Params
{
    /** b = 3. */
    static Bn254Fq
    b()
    {
        return Bn254Fq::fromU64(3);
    }

    /** The standard generator (1, 2). */
    static AffinePt<Bn254Fq, G1Params>
    basePoint()
    {
        return {Bn254Fq::fromU64(1), Bn254Fq::fromU64(2)};
    }
};

/** A point of BN254 G1 in affine coordinates. */
using G1Affine = AffinePt<Bn254Fq, G1Params>;

/** A point of BN254 G1 in Jacobian coordinates. */
using G1Jacobian = JacobianPt<Bn254Fq, G1Params>;

/** Number of Fq multiplications one Jacobian addition costs (model). */
constexpr double kG1AddFqMuls = 16.0;
/** Number of Fq multiplications one mixed addition costs (model). */
constexpr double kG1MixedAddFqMuls = 11.0;
/** Number of Fq multiplications one doubling costs (model). */
constexpr double kG1DoubleFqMuls = 8.0;
/** Serialized size of an affine point in device memory. */
constexpr size_t kG1AffineBytes = 64;

/** Fq multiplications per G2 coordinate multiplication (Karatsuba). */
constexpr double kG2CoordMulFqMuls = 3.0;
/** Serialized size of an affine G2 point in device memory. */
constexpr size_t kG2PointBytes = 128;

} // namespace unintt

#endif // UNINTT_MSM_CURVE_HH
