/**
 * @file
 * The Groth16/QAP quotient computation, the step whose NTT appetite
 * the motivation figure counts: given the constraint polynomials'
 * evaluations A, B, C on the size-n subgroup H (satisfying
 * A(x)B(x) = C(x) on H for a valid witness), compute the quotient
 *
 *   h(X) = (A(X)B(X) - C(X)) / Z_H(X),   Z_H(X) = X^n - 1,
 *
 * by moving to a coset gH where Z_H is the nonzero *constant*
 * g^n - 1: interpolate (3 inverse NTTs), extend to the coset
 * (3 coset NTTs), divide pointwise, and interpolate h back (1 coset
 * inverse NTT). Exactly the 7-transform schedule groth16Stages()
 * prices.
 */

#ifndef UNINTT_ZKP_QUOTIENT_HH
#define UNINTT_ZKP_QUOTIENT_HH

#include <vector>

#include "field/field_traits.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "zkp/polynomial.hh"

namespace unintt {

/**
 * Compute the QAP quotient polynomial from subgroup evaluations.
 *
 * @param a_evals evaluations of A on H, natural order, size 2^k.
 * @param b_evals evaluations of B on H.
 * @param c_evals evaluations of C on H; A*B - C must vanish on H
 *                (fatal "constraint system unsatisfied" otherwise).
 * @return h with A(X)B(X) - C(X) == h(X) * (X^n - 1), degree < n - 1.
 */
template <NttField F>
Polynomial<F>
computeQuotient(const std::vector<F> &a_evals,
                const std::vector<F> &b_evals,
                const std::vector<F> &c_evals)
{
    const size_t n = a_evals.size();
    UNINTT_ASSERT(isPow2(n), "domain must be a power of two");
    UNINTT_ASSERT(b_evals.size() == n && c_evals.size() == n,
                  "evaluation vectors must share one domain");
    const unsigned log_n = log2Exact(n);

    // The witness must actually satisfy the constraints on H.
    for (size_t i = 0; i < n; ++i) {
        if (!(a_evals[i] * b_evals[i] == c_evals[i]))
            fatal("constraint system unsatisfied at row %zu", i);
    }

    // 1. Interpolate A, B, C (3 inverse NTTs).
    auto a = Polynomial<F>::interpolate(a_evals);
    auto b = Polynomial<F>::interpolate(b_evals);
    auto c = Polynomial<F>::interpolate(c_evals);

    // 2. Evaluate on the coset gH (3 coset NTTs). A*B has degree up to
    //    2n - 2, but h = (AB - C)/Z_H has degree < n - 1, so its coset
    //    evaluations on n points determine it; the division below is
    //    exact precisely because AB - C vanishes on H.
    F g = F::multiplicativeGenerator();
    auto a_coset = a.evaluateOnCoset(log_n, g);
    auto b_coset = b.evaluateOnCoset(log_n, g);
    auto c_coset = c.evaluateOnCoset(log_n, g);

    // 3. Pointwise quotient. On the coset, Z_H(g w^i) = g^n w^{ni} - 1
    //    = g^n - 1: a single constant inversion.
    F zh = g.pow(n) - F::one();
    UNINTT_ASSERT(!zh.isZero(), "coset generator lies in the subgroup");
    F zh_inv = zh.inverse();
    std::vector<F> h_coset(n);
    for (size_t i = 0; i < n; ++i)
        h_coset[i] = (a_coset[i] * b_coset[i] - c_coset[i]) * zh_inv;

    // 4. Interpolate h from the coset (1 coset inverse NTT): undo the
    //    plain inverse NTT's implicit domain, then strip the coset
    //    shift from coefficient i by g^-i.
    nttInverseInPlace(h_coset);
    scaleByPowers(h_coset.data(), h_coset.size(), F::one(), g.inverse());
    return Polynomial<F>(std::move(h_coset));
}

/**
 * Check the divisibility identity the quotient asserts, at one point:
 * A(x)B(x) - C(x) == h(x) * (x^n - 1). Used by tests and examples as
 * an independent (Schwartz-Zippel) validation of computeQuotient.
 */
template <NttField F>
bool
checkQuotientAt(const Polynomial<F> &a, const Polynomial<F> &b,
                const Polynomial<F> &c, const Polynomial<F> &h, size_t n,
                F x)
{
    F lhs = a.evaluate(x) * b.evaluate(x) - c.evaluate(x);
    F rhs = h.evaluate(x) * (x.pow(n) - F::one());
    return lhs == rhs;
}

} // namespace unintt

#endif // UNINTT_ZKP_QUOTIENT_HH
