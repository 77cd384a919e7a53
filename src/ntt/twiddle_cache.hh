/**
 * @file
 * Process-wide cache of precomputed twiddle tables, one instance per
 * field (the template parameter is the key's field component). ZKP
 * provers transform the same domain sizes over and over — STARK trace /
 * LDE / FRI folding loops, batched polynomial multiplication — and
 * regenerating the powers of the root of unity on every call is pure
 * waste. The cache hands out shared_ptr<const TwiddleTable> so hits are
 * one mutex acquisition plus a refcount, safe to use from the host
 * thread pool (util/lru_cache.hh holds the shared contract).
 *
 * Eviction is LRU, bounded both by entry count and by total bytes so a
 * sweep over many sizes cannot pin unbounded memory (a 2^24 BN254 table
 * alone is 256 MiB).
 */

#ifndef UNINTT_NTT_TWIDDLE_CACHE_HH
#define UNINTT_NTT_TWIDDLE_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "ntt/twiddle.hh"
#include "util/bitops.hh"
#include "util/lru_cache.hh"

namespace unintt {

/**
 * Per-stage compacted twiddle slabs. A radix-2 stage s of a size-n
 * transform reads tw[j << s] for j in [0, n >> (s+1)) — a strided walk
 * over the flat table that wastes most of every cache line at the
 * outer stages. The slabs store each stage's twiddles contiguously:
 * slab(s)[j] == tw[j << s] (equivalently, the full table of the
 * size-(n >> s) sub-transform), so every inner loop becomes a unit
 * stride read. Total footprint is sum_s n >> (s+1) = n - 1 elements,
 * twice the flat table. The slabs lie back to back in stage order, so
 * the last k slabs form one run of 2^k - 1 elements: the packed
 * twiddle layout of the sub-lane kernel slots (field/kernels.hh).
 */
template <NttField F>
class TwiddleSlabs
{
  public:
    /** Compact @p table (powers of the size-n root) into slabs. */
    explicit TwiddleSlabs(const TwiddleTable<F> &table)
        : n_(table.n())
    {
        const unsigned log_n = log2Exact(n_);
        offsets_.resize(log_n + 1);
        flat_.reserve(n_ - 1);
        for (unsigned s = 0; s < log_n; ++s) {
            offsets_[s] = flat_.size();
            const size_t cnt = n_ >> (s + 1);
            const size_t stride = size_t{1} << s;
            for (size_t j = 0; j < cnt; ++j)
                flat_.push_back(table[j * stride]);
        }
        offsets_[log_n] = flat_.size();
    }

    /** Transform size the slabs were built for. */
    size_t n() const { return n_; }

    /** Stage-s twiddles, n >> (s+1) contiguous entries. */
    const F *
    slab(unsigned s) const
    {
        return flat_.data() + offsets_[s];
    }

    /** Bytes the slabs occupy (cache budget accounting). */
    size_t sizeBytes() const { return flat_.size() * sizeof(F); }

  private:
    size_t n_;
    std::vector<size_t> offsets_;
    std::vector<F> flat_;
};

/** Key of the twiddle table and slab caches. */
struct TwiddleKey
{
    size_t n;
    NttDirection dir;

    bool operator==(const TwiddleKey &) const = default;
};

/** Thread-safe LRU cache of TwiddleTable<F> keyed by (size, direction). */
template <NttField F>
class TwiddleCache : public LruCache<TwiddleKey, TwiddleTable<F>>
{
    using Base = LruCache<TwiddleKey, TwiddleTable<F>>;

  public:
    /**
     * @param max_entries LRU bound on cached tables.
     * @param max_bytes   LRU bound on the summed table footprint.
     */
    explicit TwiddleCache(size_t max_entries = 32,
                          size_t max_bytes = 256ULL << 20)
        : Base(max_entries, max_bytes)
    {
    }

    /**
     * The table for size-@p n transforms in direction @p dir, built on
     * the first request and shared afterwards. @p hit_out (optional)
     * reports whether this call was served from the cache.
     */
    std::shared_ptr<const TwiddleTable<F>>
    get(size_t n, NttDirection dir, bool *hit_out = nullptr)
    {
        return Base::get(
            {n, dir}, [&] { return TwiddleTable<F>(n, dir); }, hit_out);
    }

    /** The process-wide instance for field F. */
    static TwiddleCache &
    global()
    {
        static TwiddleCache cache;
        return cache;
    }
};

/** Cached lookup on the field's global cache. */
template <NttField F>
std::shared_ptr<const TwiddleTable<F>>
cachedTwiddles(size_t n, NttDirection dir, bool *hit_out = nullptr)
{
    return TwiddleCache<F>::global().get(n, dir, hit_out);
}

/**
 * Thread-safe LRU cache of TwiddleSlabs<F> keyed by (size, direction).
 * A slab miss builds from the table cache (cachedTwiddles), so the flat
 * table stays shared with the callers that still want strided access
 * and the table cache's counters keep describing root-of-unity
 * regeneration.
 */
template <NttField F>
class TwiddleSlabCache : public LruCache<TwiddleKey, TwiddleSlabs<F>>
{
    using Base = LruCache<TwiddleKey, TwiddleSlabs<F>>;

  public:
    /** Bounds mirror TwiddleCache; slabs are ~2x a table. */
    explicit TwiddleSlabCache(size_t max_entries = 32,
                              size_t max_bytes = 512ULL << 20)
        : Base(max_entries, max_bytes)
    {
    }

    /**
     * The slabs for size-@p n transforms in direction @p dir.
     * @p hit_out (optional) reports slab-cache service; on a miss,
     * @p table_hit_out (optional) reports how the underlying table
     * lookup behaved (untouched on a slab hit).
     */
    std::shared_ptr<const TwiddleSlabs<F>>
    get(size_t n, NttDirection dir, bool *hit_out = nullptr,
        bool *table_hit_out = nullptr)
    {
        return Base::get(
            {n, dir},
            [&] {
                return TwiddleSlabs<F>(
                    *cachedTwiddles<F>(n, dir, table_hit_out));
            },
            hit_out);
    }

    /** The process-wide instance for field F. */
    static TwiddleSlabCache &
    global()
    {
        static TwiddleSlabCache cache;
        return cache;
    }
};

/** Cached slab lookup on the field's global slab cache. */
template <NttField F>
std::shared_ptr<const TwiddleSlabs<F>>
cachedTwiddleSlabs(size_t n, NttDirection dir, bool *hit_out = nullptr,
                   bool *table_hit_out = nullptr)
{
    return TwiddleSlabCache<F>::global().get(n, dir, hit_out,
                                             table_hit_out);
}

} // namespace unintt

#endif // UNINTT_NTT_TWIDDLE_CACHE_HH
