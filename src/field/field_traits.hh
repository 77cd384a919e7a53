/**
 * @file
 * Compile-time description of the field interface the NTT engine relies
 * on, expressed as a C++20 concept, plus small free-function helpers that
 * work for every conforming field.
 */

#ifndef UNINTT_FIELD_FIELD_TRAITS_HH
#define UNINTT_FIELD_FIELD_TRAITS_HH

#include <concepts>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace unintt {

/**
 * The operations every NTT-capable field must provide. All three shipped
 * fields (Goldilocks, BabyBear, BN254-Fr) satisfy this concept; Bn254Fq
 * satisfies it too but has no useful two-adic domain.
 */
template <typename F>
concept NttField = requires(F a, F b, uint64_t x, unsigned log_n) {
    { F::zero() } -> std::convertible_to<F>;
    { F::one() } -> std::convertible_to<F>;
    { F::fromU64(x) } -> std::convertible_to<F>;
    { F::rootOfUnity(log_n) } -> std::convertible_to<F>;
    { F::multiplicativeGenerator() } -> std::convertible_to<F>;
    { a + b } -> std::convertible_to<F>;
    { a - b } -> std::convertible_to<F>;
    { a * b } -> std::convertible_to<F>;
    { -a } -> std::convertible_to<F>;
    { a == b } -> std::convertible_to<bool>;
    { a.pow(x) } -> std::convertible_to<F>;
    { a.inverse() } -> std::convertible_to<F>;
    { a.isZero() } -> std::convertible_to<bool>;
    { F::kTwoAdicity } -> std::convertible_to<unsigned>;
    { F::kBytes } -> std::convertible_to<size_t>;
};

/**
 * Fatal unless F has a 2^logN-th root of unity. rootOfUnity checks it,
 * and so does every engine when it plans, because analytic pricing
 * never builds the root.
 */
template <NttField F>
void
requireTwoAdicSize(unsigned logN)
{
    if (logN > F::kTwoAdicity)
        fatal("%s has two-adicity %u: no NTT of size 2^%u", F::kName,
              F::kTwoAdicity, logN);
}

/** Fill @p out with n^-1 batched: one inversion + 3(n-1) multiplies. */
template <NttField F>
std::vector<F>
batchInverse(const std::vector<F> &xs)
{
    std::vector<F> out(xs.size());
    if (xs.empty())
        return out;
    // Montgomery's trick: prefix products, invert once, unwind.
    std::vector<F> prefix(xs.size());
    F acc = F::one();
    for (size_t i = 0; i < xs.size(); ++i) {
        prefix[i] = acc;
        acc *= xs[i];
    }
    F inv = acc.inverse();
    for (size_t i = xs.size(); i-- > 0;) {
        out[i] = prefix[i] * inv;
        inv *= xs[i];
    }
    return out;
}

/**
 * Multiply entry i of @p p[0..n) by start * ratio^i, as p[i] *= power
 * with power running start, start * ratio, ...: a coset shift
 * (ratio = shift), its undoing (ratio = shift^-1), or one shard's
 * slice of either (start = shift^offset).
 */
template <NttField F>
void
scaleByPowers(F *p, size_t n, F start, F ratio)
{
    F power = start;
    for (size_t i = 0; i < n; ++i) {
        p[i] *= power;
        power *= ratio;
    }
}

/** Random nonzero-ish field element from raw 64-bit entropy. */
template <NttField F>
F
fieldFromEntropy(uint64_t entropy)
{
    return F::fromU64(entropy);
}

} // namespace unintt

#endif // UNINTT_FIELD_FIELD_TRAITS_HH
