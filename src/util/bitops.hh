/**
 * @file
 * Bit-manipulation helpers used throughout the NTT kernels: power-of-two
 * predicates, integer log2 and bit reversal.
 */

#ifndef UNINTT_UTIL_BITOPS_HH
#define UNINTT_UTIL_BITOPS_HH

#include <cstddef>
#include <cstdint>
#include <utility>

namespace unintt {

/** True iff @p x is a power of two (0 is not). */
constexpr bool
isPow2(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Floor of log2(x); undefined for x == 0. */
constexpr unsigned
log2Floor(uint64_t x)
{
    unsigned r = 0;
    while (x >>= 1)
        ++r;
    return r;
}

/** Exact log2 of a power of two. */
constexpr unsigned
log2Exact(uint64_t x)
{
    return log2Floor(x);
}

/** Smallest power of two >= x (x must be <= 2^63). */
constexpr uint64_t
nextPow2(uint64_t x)
{
    uint64_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

/** Reverse the low @p bits bits of @p x. */
constexpr uint64_t
bitReverse(uint64_t x, unsigned bits)
{
    uint64_t r = 0;
    for (unsigned i = 0; i < bits; ++i) {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    return r;
}

/** In-place bit-reversal permutation of a length-2^bits array. */
template <typename T>
void
bitReversePermute(T *data, std::size_t n)
{
    unsigned bits = log2Exact(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = bitReverse(i, bits);
        if (i < j)
            std::swap(data[i], data[j]);
    }
}

} // namespace unintt

#endif // UNINTT_UTIL_BITOPS_HH
