/**
 * @file
 * Dense polynomials over an NTT field, in coefficient form. Provides
 * the operations ZKP provers build on: domain evaluation (NTT),
 * interpolation (inverse NTT), coset low-degree extension, and fast
 * multiplication via the convolution theorem.
 */

#ifndef UNINTT_ZKP_POLYNOMIAL_HH
#define UNINTT_ZKP_POLYNOMIAL_HH

#include <vector>

#include "field/field_traits.hh"
#include "ntt/radix2.hh"
#include "ntt/reference.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace unintt {

/** A dense polynomial sum_i coeffs[i] * X^i. */
template <NttField F>
class Polynomial
{
  public:
    /** The zero polynomial. */
    Polynomial() = default;

    /** From coefficients, lowest degree first. */
    explicit Polynomial(std::vector<F> coeffs)
        : coeffs_(std::move(coeffs))
    {
    }

    /** Uniform random polynomial with @p num_coeffs coefficients. */
    static Polynomial
    random(size_t num_coeffs, uint64_t seed)
    {
        Rng rng(seed);
        std::vector<F> c(num_coeffs);
        for (auto &v : c)
            v = F::fromU64(rng.next());
        return Polynomial(std::move(c));
    }

    /** Coefficients, lowest degree first. */
    const std::vector<F> &coeffs() const { return coeffs_; }

    /** Degree (-1 encoded as 0 for the zero polynomial). */
    size_t
    degree() const
    {
        for (size_t i = coeffs_.size(); i-- > 0;)
            if (!coeffs_[i].isZero())
                return i;
        return 0;
    }

    /** Evaluate at @p x by Horner's rule. */
    F
    evaluate(F x) const
    {
        F acc = F::zero();
        for (size_t i = coeffs_.size(); i-- > 0;)
            acc = acc * x + coeffs_[i];
        return acc;
    }

    /** Coefficient-wise sum. */
    Polynomial
    operator+(const Polynomial &o) const
    {
        std::vector<F> out(std::max(coeffs_.size(), o.coeffs_.size()),
                           F::zero());
        for (size_t i = 0; i < coeffs_.size(); ++i)
            out[i] += coeffs_[i];
        for (size_t i = 0; i < o.coeffs_.size(); ++i)
            out[i] += o.coeffs_[i];
        return Polynomial(std::move(out));
    }

    /** Scalar multiple. */
    Polynomial
    scaled(F s) const
    {
        std::vector<F> out = coeffs_;
        for (auto &v : out)
            v *= s;
        return Polynomial(std::move(out));
    }

    /**
     * Product via NTT: pad to a power-of-two domain large enough to
     * hold the full product, transform, pointwise-multiply, invert.
     */
    static Polynomial
    multiply(const Polynomial &a, const Polynomial &b)
    {
        if (a.coeffs_.empty() || b.coeffs_.empty())
            return Polynomial();
        size_t out_len = a.coeffs_.size() + b.coeffs_.size() - 1;
        size_t n = nextPow2(out_len);
        std::vector<F> fa(n, F::zero()), fb(n, F::zero());
        std::copy(a.coeffs_.begin(), a.coeffs_.end(), fa.begin());
        std::copy(b.coeffs_.begin(), b.coeffs_.end(), fb.begin());
        nttNoPermute(fa, NttDirection::Forward);
        nttNoPermute(fb, NttDirection::Forward);
        for (size_t i = 0; i < n; ++i)
            fa[i] *= fb[i];
        nttNoPermute(fa, NttDirection::Inverse);
        fa.resize(out_len);
        return Polynomial(std::move(fa));
    }

    /**
     * Evaluations on the size-2^log_n subgroup domain {w^0, .., w^(n-1)}
     * in natural order. The coefficient count must fit the domain.
     */
    std::vector<F>
    evaluateOnDomain(unsigned log_n) const
    {
        size_t n = 1ULL << log_n;
        UNINTT_ASSERT(coeffs_.size() <= n, "domain too small");
        std::vector<F> evals(n, F::zero());
        std::copy(coeffs_.begin(), coeffs_.end(), evals.begin());
        nttForwardInPlace(evals);
        return evals;
    }

    /** Interpolate from natural-order evaluations (inverse NTT). */
    static Polynomial
    interpolate(std::vector<F> evals)
    {
        UNINTT_ASSERT(isPow2(evals.size()), "domain must be 2^k");
        nttInverseInPlace(evals);
        return Polynomial(std::move(evals));
    }

    /**
     * Low-degree extension: evaluations on the coset
     * {shift * w^i} of the size-2^log_n domain. This is the coset NTT
     * ZKP quotient computations use (shift must be outside the
     * subgroup, conventionally the field's multiplicative generator).
     */
    std::vector<F>
    evaluateOnCoset(unsigned log_n, F shift) const
    {
        size_t n = 1ULL << log_n;
        UNINTT_ASSERT(coeffs_.size() <= n, "domain too small");
        std::vector<F> scaled_coeffs(n, F::zero());
        std::copy(coeffs_.begin(), coeffs_.end(), scaled_coeffs.begin());
        scaleByPowers(scaled_coeffs.data(), coeffs_.size(), F::one(),
                      shift);
        nttForwardInPlace(scaled_coeffs);
        return scaled_coeffs;
    }

    bool
    operator==(const Polynomial &o) const
    {
        size_t n = std::max(coeffs_.size(), o.coeffs_.size());
        for (size_t i = 0; i < n; ++i) {
            F a = i < coeffs_.size() ? coeffs_[i] : F::zero();
            F b = i < o.coeffs_.size() ? o.coeffs_[i] : F::zero();
            if (!(a == b))
                return false;
        }
        return true;
    }

  private:
    std::vector<F> coeffs_;
};

} // namespace unintt

#endif // UNINTT_ZKP_POLYNOMIAL_HH
