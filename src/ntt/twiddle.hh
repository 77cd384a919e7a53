/**
 * @file
 * Twiddle-factor management. A TwiddleTable precomputes the powers of the
 * primitive root for a given transform size; twiddle_cache.hh shares
 * the tables and derives the per-stage compacted slabs the transforms
 * read.
 */

#ifndef UNINTT_NTT_TWIDDLE_HH
#define UNINTT_NTT_TWIDDLE_HH

#include <cstdint>
#include <vector>

#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace unintt {

/**
 * Precomputed powers of the size-n primitive root of unity, for one
 * direction. Entry i holds w^i for i in [0, n/2).
 */
template <NttField F>
class TwiddleTable
{
  public:
    /**
     * Build the table for transforms of size @p n.
     * @param n   power-of-two transform size (>= 2).
     * @param dir Forward uses w, Inverse uses w^-1.
     */
    TwiddleTable(size_t n, NttDirection dir)
        : n_(n)
    {
        UNINTT_ASSERT(isPow2(n) && n >= 2, "size must be a power of two");
        unsigned log_n = log2Exact(n);
        root_ = F::rootOfUnity(log_n);
        if (dir == NttDirection::Inverse)
            root_ = root_.inverse();
        powers_.resize(n / 2);
        F acc = F::one();
        for (size_t i = 0; i < n / 2; ++i) {
            powers_[i] = acc;
            acc *= root_;
        }
    }

    /** Transform size the table was built for. */
    size_t n() const { return n_; }

    /** The primitive size-n root (or its inverse). */
    F root() const { return root_; }

    /** w^i for i < n/2. */
    const F &
    operator[](size_t i) const
    {
        return powers_[i];
    }

    /** Raw table, n/2 entries. */
    const std::vector<F> &powers() const { return powers_; }

    /** Bytes the table occupies; used by the performance model. */
    size_t sizeBytes() const { return powers_.size() * sizeof(F); }

  private:
    size_t n_;
    F root_;
    std::vector<F> powers_;
};

/**
 * Scaling factor n^-1 applied at the end of an inverse transform.
 */
template <NttField F>
F
inverseScale(size_t n)
{
    return F::fromU64(n).inverse();
}

} // namespace unintt

#endif // UNINTT_NTT_TWIDDLE_HH
