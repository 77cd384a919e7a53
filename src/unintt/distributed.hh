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
#include <vector>

#include "field/field_traits.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

namespace unintt {

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

} // namespace unintt

#endif // UNINTT_UNINTT_DISTRIBUTED_HH
