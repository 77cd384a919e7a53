/**
 * @file
 * A vector of field elements distributed across the simulated GPUs in
 * contiguous chunks: GPU g owns global positions
 * [g*n/G, (g+1)*n/G). This is the layout the UniNTT engine computes in;
 * helpers convert to and from a single host-side vector for tests and
 * examples.
 */

#ifndef UNINTT_UNINTT_DISTRIBUTED_HH
#define UNINTT_UNINTT_DISTRIBUTED_HH

#include <algorithm>
#include <atomic>
#include <span>
#include <type_traits>
#include <vector>

#include "field/dispatch.hh"
#include "field/field_traits.hh"
#include "util/bitops.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

namespace unintt {

/**
 * Elements from which forShardSlices runs on the pool. Measured at the
 * proving service's shapes (Goldilocks 2^10-2^16 on 1-2 shards, two
 * lanes, AVX-512 slots): below 2^16 a fill or hash slice is done
 * before a woken worker joins, and the fork/join only adds to it.
 */
inline constexpr uint64_t kMinPooledSliceElems = 1ULL << 16;

/**
 * Run @p fn(g, b, e) over element slices [b, e) of @p shards shards
 * @p width elements wide, laneSlices of them per shard; on the pool
 * once the shards hold kMinPooledSliceElems elements together.
 */
template <typename Fn>
void
forShardSlices(size_t shards, uint64_t width, unsigned lanes, Fn &&fn)
{
    if (shards == 0)
        return;
    const uint64_t slices =
        std::max<uint64_t>(1, laneSlices(shards, width, lanes));
    const bool pooled = shards * width >= kMinPooledSliceElems;
    hostParallelFor(shards * slices, width / slices, pooled ? lanes : 1,
                    [&](size_t u) {
                        const uint64_t s = u % slices;
                        fn(u / slices, width * s / slices,
                           width * (s + 1) / slices);
                    });
}

/** Field elements sharded in contiguous chunks across GPUs. */
template <NttField F>
class DistributedVector
{
  public:
    /** Empty vector over @p num_gpus devices. */
    explicit DistributedVector(unsigned num_gpus)
        : chunks_(num_gpus)
    {
        UNINTT_ASSERT(num_gpus > 0, "need at least one GPU");
    }

    /**
     * Shard a host vector, validating the collective shape instead of
     * asserting: a size that does not divide evenly over the devices
     * is a recoverable InvalidArgument, not a process exit, so the
     * resilient paths can surface it as a clean failure.
     */
    static Result<DistributedVector>
    fromGlobalChecked(const std::vector<F> &global, unsigned num_gpus)
    {
        if (num_gpus == 0)
            return Status::error(StatusCode::InvalidArgument,
                                 "cannot shard over zero GPUs");
        if (global.size() % num_gpus != 0)
            return Status::error(
                StatusCode::InvalidArgument,
                "incomplete collective shape: " +
                    std::to_string(global.size()) +
                    " elements do not divide over " +
                    std::to_string(num_gpus) + " GPUs");
        return fromGlobal(global, num_gpus);
    }

    /** Shard a host vector; size must be divisible by the GPU count. */
    static DistributedVector
    fromGlobal(const std::vector<F> &global, unsigned num_gpus)
    {
        UNINTT_ASSERT(global.size() % num_gpus == 0,
                      "size must divide evenly across GPUs");
        DistributedVector out(num_gpus);
        size_t chunk = global.size() / num_gpus;
        // Chunks are disjoint, so sharding copies concurrently.
        hostParallelFor(num_gpus, chunk, 0, [&](size_t g) {
            out.chunks_[g].assign(global.begin() + g * chunk,
                                  global.begin() + (g + 1) * chunk);
        });
        return out;
    }

    /**
     * @p n seeded elements over @p num_gpus devices: global element i
     * is F::fromU64(mix64(seed ^ i)), which @p fk's seededFill writes
     * straight into its shard, in slices (forShardSlices). No global
     * vector is built or copied.
     */
    static DistributedVector
    seeded(uint64_t n, unsigned num_gpus, uint64_t seed, unsigned lanes,
           const FieldKernels<F> &fk = fieldKernels<F>())
    {
        UNINTT_ASSERT(n % num_gpus == 0,
                      "size must divide evenly across GPUs");
        DistributedVector out(num_gpus);
        const uint64_t C = n / num_gpus;
        for (auto &chunk : out.chunks_)
            chunk.resize(C);
        forShardSlices(num_gpus, C, lanes,
                       [&](size_t g, uint64_t b, uint64_t e) {
                           fk.seededFill(out.chunks_[g].data() + b, e - b,
                                         seed, g * C + b);
                       });
        return out;
    }

    /** Gather all chunks back into one host vector. */
    std::vector<F>
    toGlobal() const
    {
        std::vector<F> out;
        toGlobal(out);
        return out;
    }

    /** toGlobal() into @p out, reusing its storage. */
    void
    toGlobal(std::vector<F> &out) const
    {
        std::vector<size_t> offsets(chunks_.size() + 1, 0);
        for (size_t g = 0; g < chunks_.size(); ++g)
            offsets[g + 1] = offsets[g] + chunks_[g].size();
        out.resize(offsets.back());
        const size_t avg =
            chunks_.empty() ? 0 : offsets.back() / chunks_.size();
        hostParallelFor(chunks_.size(), avg, 0, [&](size_t g) {
            std::copy(chunks_[g].begin(), chunks_[g].end(),
                      out.begin() + offsets[g]);
        });
    }

    /** Number of devices. */
    unsigned
    numGpus() const
    {
        return static_cast<unsigned>(chunks_.size());
    }

    /** Total element count. */
    size_t
    size() const
    {
        size_t n = 0;
        for (const auto &c : chunks_)
            n += c.size();
        return n;
    }

    /** Elements per device (uniform). */
    size_t chunkSize() const { return chunks_.empty() ? 0 : chunks_[0].size(); }

    /** Every GPU's chunk, in GPU order. */
    const std::vector<std::vector<F>> &chunks() const { return chunks_; }

    /** Mutable chunk of GPU @p g. */
    std::vector<F> &
    chunk(unsigned g)
    {
        UNINTT_ASSERT(g < chunks_.size(), "GPU index out of range");
        return chunks_[g];
    }

    /** Read-only chunk of GPU @p g. */
    const std::vector<F> &
    chunk(unsigned g) const
    {
        UNINTT_ASSERT(g < chunks_.size(), "GPU index out of range");
        return chunks_[g];
    }

    /**
     * Redistribute the elements over @p new_num_gpus devices, keeping
     * the global order (degraded-mode re-planning after device loss).
     */
    void
    reshard(unsigned new_num_gpus)
    {
        UNINTT_ASSERT(new_num_gpus > 0, "need at least one GPU");
        UNINTT_ASSERT(size() % new_num_gpus == 0,
                      "size must divide evenly across GPUs");
        *this = fromGlobal(toGlobal(), new_num_gpus);
    }

    /**
     * reshard() with the shape validated rather than asserted — the
     * degraded-mode and health-exclusion paths run mid-recovery, where
     * an impossible target shape must come back as a Status the run
     * can report, never as an exit.
     */
    Status
    reshardChecked(unsigned new_num_gpus)
    {
        if (new_num_gpus == 0)
            return Status::error(StatusCode::InvalidArgument,
                                 "cannot reshard onto zero GPUs");
        if (size() % new_num_gpus != 0)
            return Status::error(
                StatusCode::InvalidArgument,
                "incomplete collective shape: " +
                    std::to_string(size()) +
                    " elements do not reshard onto " +
                    std::to_string(new_num_gpus) + " GPUs");
        *this = fromGlobal(toGlobal(), new_num_gpus);
        return Status();
    }

  private:
    std::vector<std::vector<F>> chunks_;
};

/**
 * checksumShards(@p shards) (util/checksum.hh) through @p fk's
 * wordHash: the shards' whole words hash in slices (forShardSlices)
 * whose partial XORs combine in any order. The shards are of one
 * length; a short last word, which only a lone shard of an odd number
 * of 4-byte elements has, goes through checksumWords.
 */
template <NttField F>
uint64_t
checksumShardsPooled(
    std::type_identity_t<std::span<const std::vector<F>>> shards,
    unsigned lanes, const FieldKernels<F> &fk)
{
    const size_t G = shards.size();
    const uint64_t bytes = G == 0 ? 0 : shards[0].size() * sizeof(F);
    for (const std::vector<F> &s : shards)
        UNINTT_ASSERT(s.size() * sizeof(F) == bytes,
                      "checksum shards differ in length");
    UNINTT_ASSERT(G <= 1 || bytes % 8 == 0,
                  "checksum shard splits a word");
    const uint64_t words = bytes / 8;
    auto raw = [&](size_t g) {
        return reinterpret_cast<const unsigned char *>(shards[g].data());
    };
    std::atomic<uint64_t> h{kChecksumSalt ^ (G * bytes)};
    forShardSlices(G, words, lanes, [&](size_t g, uint64_t b, uint64_t e) {
        h.fetch_xor(fk.wordHash(raw(g) + 8 * b, e - b, 1 + g * words + b),
                    std::memory_order_relaxed);
    });
    if (bytes % 8 != 0)
        h ^= checksumWords(raw(0) + 8 * words, bytes % 8, 1 + words);
    return h;
}

} // namespace unintt

#endif // UNINTT_UNINTT_DISTRIBUTED_HH
