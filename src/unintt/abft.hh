/**
 * @file
 * ABFT compute-path integrity: random-linear-combination (RLC)
 * checksums carried analytically through every linear step of a
 * compiled schedule.
 *
 * Every step of a transform schedule is a linear map A_k over the
 * sharded data x. Pick a random coefficient vector r and track the
 * scalar s_k = <r_k, x_k> per shard: if r_{k-1} = A_k^T r_k, then
 * <r_{k-1}, x_{k-1}> == <r_k, A_k x_{k-1}> — the checksum of the step's
 * *input* under the transposed coefficients predicts the checksum of
 * its *output* under the original ones. The executor therefore never
 * runs a transposed pass at runtime: AbftCoefficients precomputes the
 * coefficient vector at every step boundary (generated backward from a
 * seeded final vector through the step transposes), and each post-step
 * check is one O(n/G) dot product per shard compared for equality.
 *
 * Transposes per step kind (butterfly pairs are disjoint, so the
 * transpose is in-place over each pair):
 *  - forward DIF butterfly (a,b) -> (a+b, (a-b)w):
 *      r_a' = r_a + w r_b,  r_b' = r_a - w r_b, the DIT butterfly
 *  - inverse DIT butterfly (a,b) -> (a+wb, a-wb):
 *      r_a' = r_a + r_b,    r_b' = w (r_a - r_b), the DIF butterfly
 *  - the inverse's n^-1, which its first step applies with its
 *    butterflies (x -> sx): r' = s r, applied by the same step's
 *    transpose (baked into the generation, so every runtime comparison
 *    is plain equality)
 *  - explicit twiddle passes (fusion off) are functional no-ops:
 *    identity transition.
 * A transposed product runs its factors in reverse order, and so does
 * the opposite direction's stage walk. So each boundary vector comes
 * from the step's own compute function (compute.hh) run in the
 * opposite direction on the same twiddle slabs: the SIMD sweeps, fused
 * groups included, build the exact transpose.
 *
 * Chunk-local steps (local passes, twiddle passes) preserve per-shard
 * checksums individually; a cross-GPU butterfly mixes exactly the two
 * chunks of each exchanging pair, so its invariant is the *pairwise
 * sum* of the two shard checksums. A single flipped bit changes the
 * dot product unless its coefficient weight happens to vanish — a
 * 2^-64 event for the 64-bit fields the chaos suite drives — which is
 * what lets the executor localize corruption to a shard, then to a
 * tile, and recompute only that tile (executors.hh).
 *
 * The vectors are immutable and shared through a process-wide LRU
 * cache (util/lru_cache.hh) keyed by the full identity of the seed and
 * the checked-step geometry (AbftKey): proving loops re-run the same
 * schedule shapes, and regeneration costs about one transform.
 */

#ifndef UNINTT_UNINTT_ABFT_HH
#define UNINTT_UNINTT_ABFT_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "field/dispatch.hh"
#include "field/field_traits.hh"
#include "field/goldilocks.hh"
#include "ntt/twiddle.hh"
#include "ntt/twiddle_cache.hh"
#include "unintt/compute.hh"
#include "unintt/distributed.hh"
#include "unintt/schedule.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/lru_cache.hh"
#include "util/thread_pool.hh"

namespace unintt {

/** True iff @p st carries an ABFT checksum transition. */
inline bool
abftChecked(const ScheduleStep &st)
{
    return st.abftCheckElems != 0;
}

/**
 * Identity of everything the coefficient vectors depend on: the seed,
 * the transform geometry, and the (kind, stage range, distance,
 * scaling) signature of every checked step. Schedules with equal keys
 * produce identical vectors, so resume schedules after degradation key
 * their own entries while repeated clean runs share one.
 */
struct AbftKey
{
    struct CheckedStep
    {
        StepKind kind;
        unsigned sBegin;
        unsigned sEnd;
        unsigned distance;
        bool applyInverseScale;

        bool operator==(const CheckedStep &) const = default;
    };

    AbftKey(const StageSchedule &sched, uint64_t coef_seed)
        : seed(coef_seed), logN(sched.logN), dir(sched.dir),
          chunkElems(sched.plan.chunkElems())
    {
        for (const ScheduleStep &st : sched.steps)
            if (abftChecked(st))
                steps.push_back({st.kind, st.sBegin, st.sEnd, st.distance,
                                 st.applyInverseScale});
    }

    uint64_t seed;
    unsigned logN;
    NttDirection dir;
    uint64_t chunkElems;
    std::vector<CheckedStep> steps;

    bool operator==(const AbftKey &) const = default;
};

/**
 * RLC dot product over @p count elements (checks and tile
 * localization), via the bound dot-span kernel (field/kernels.hh).
 * Every registered table carries the same value-exact reduction — the
 * four-chain scalar form, with a lazy-u128 Goldilocks path that folds
 * its wraps back to the identical canonical value — and the reduction
 * order is fixed, so the result is deterministic across ISA paths and
 * checks/localization may mix freely with historic checksums.
 */
template <NttField F>
F
abftSpanDot(const F *coef, const F *x, uint64_t count)
{
    return fieldKernels<F>().dotSpan(coef, x, count);
}

/**
 * Per-shard RLC checksums of @p data under @p coef (sharded like the
 * data). Partial sums are reduced in a fixed order, and field addition
 * is exact, so the result is bit-identical for every lane count.
 */
template <NttField F>
std::vector<F>
abftChunkChecksums(const DistributedVector<F> &coef,
                   const DistributedVector<F> &data, unsigned lanes)
{
    const unsigned G = data.numGpus();
    const uint64_t C = data.chunkSize();
    UNINTT_ASSERT(coef.numGpus() == G && coef.chunkSize() == C,
                  "coefficient vector does not match the data shape");
    const uint64_t slices = laneSlices(G, C, lanes);
    std::vector<F> partial(static_cast<size_t>(G) * slices,
                           F::fromU64(0));
    hostParallelFor(
        static_cast<uint64_t>(G) * slices, 2 * (C / slices), lanes,
        [&](size_t u) {
            const unsigned g = static_cast<unsigned>(u / slices);
            const uint64_t sl = u % slices;
            const uint64_t c0 = C * sl / slices;
            const uint64_t c1 = C * (sl + 1) / slices;
            partial[u] = abftSpanDot(coef.chunk(g).data() + c0,
                                     data.chunk(g).data() + c0, c1 - c0);
        });
    std::vector<F> out(G, F::fromU64(0));
    for (unsigned g = 0; g < G; ++g)
        for (uint64_t sl = 0; sl < slices; ++sl)
            out[g] = out[g] + partial[g * slices + sl];
    return out;
}

/**
 * The coefficient vector at every checked-step boundary of one
 * schedule, sharded like the data: boundary(k) weighs the data
 * *before* the k-th checked step and boundary(k+1) the data after it.
 * Immutable once built; share via AbftCoefficientCache.
 */
template <NttField F>
class AbftCoefficients
{
  public:
    AbftCoefficients(const StageSchedule &sched,
                     const TwiddleSlabs<F> &slabs, uint64_t seed,
                     unsigned lanes)
        : n_(1ULL << sched.logN)
    {
        std::vector<const ScheduleStep *> checked;
        for (const ScheduleStep &st : sched.steps)
            if (abftChecked(st))
                checked.push_back(&st);

        // Final boundary: seeded entropy, zeros nudged to one so every
        // output element carries weight in the last comparison.
        const uint64_t C = sched.plan.chunkElems();
        DistributedVector<F> last(static_cast<unsigned>(n_ / C));
        for (unsigned g = 0; g < last.numGpus(); ++g)
            last.chunk(g).resize(C);
        forShardSlices(last.numGpus(), C, lanes,
                       [&](size_t g, uint64_t b, uint64_t e) {
                           F *p = last.chunk(g).data();
                           for (uint64_t c = b; c < e; ++c) {
                               const F v = fieldFromEntropy<F>(
                                   mix64(seed ^ mix64(g * C + c + 1)));
                               p[c] = v.isZero() ? F::fromU64(1) : v;
                           }
                       });

        // Backward through the step transposes, last boundary first.
        boundaries_.reserve(checked.size() + 1);
        boundaries_.push_back(std::move(last));
        for (size_t k = checked.size(); k-- > 0;) {
            boundaries_.push_back(boundaries_.back());
            transposeStep(*checked[k], boundaries_.back(), sched.logN,
                          slabs, sched.dir, lanes);
        }
        std::reverse(boundaries_.begin(), boundaries_.end());
    }

    /** Transform size the vectors were built for. */
    uint64_t n() const { return n_; }

    /** Checked steps covered (boundary count minus one). */
    size_t checkedSteps() const { return boundaries_.size() - 1; }

    /** Coefficients weighing the data at boundary @p b. */
    const DistributedVector<F> &
    boundary(size_t b) const
    {
        UNINTT_ASSERT(b < boundaries_.size(),
                      "ABFT boundary out of range");
        return boundaries_[b];
    }

    /** Bytes the vectors occupy (cache budget accounting). */
    uint64_t
    sizeBytes() const
    {
        return boundaries_.size() * n_ * sizeof(F);
    }

  private:
    /**
     * In-place transpose of one checked step, r <- A^T r: the step's
     * own compute function in the opposite direction on its slabs.
     */
    static void
    transposeStep(const ScheduleStep &st, DistributedVector<F> &r,
                  unsigned logN, const TwiddleSlabs<F> &slabs,
                  NttDirection dir, unsigned lanes)
    {
        const NttDirection t = dir == NttDirection::Forward
                                   ? NttDirection::Inverse
                                   : NttDirection::Forward;
        const FieldKernels<F> &fk = fieldKernels<F>();
        switch (st.kind) {
          case StepKind::CrossStage:
            crossStageCompute(r, st.sBegin, logN, slabs, t, lanes, 0,
                              r.chunkSize());
            return;
          case StepKind::LocalPass:
            localStagesCompute(r, st.sBegin, st.sEnd, logN, slabs, t,
                               lanes, fk, stepScale<F>(st, logN));
            return;
          case StepKind::FusedLocalPass:
            fusedLocalStagesCompute(r, st.sBegin, st.sEnd, logN, slabs,
                                    t, lanes, fk, stepScale<F>(st, logN));
            return;
          case StepKind::Scale:
            return; // explicit twiddle pass: functional no-op
          default:
            panic("step kind has no ABFT transition");
        }
    }

    uint64_t n_;
    std::vector<DistributedVector<F>> boundaries_;
};

/**
 * Thread-safe LRU cache of AbftCoefficients<F> keyed by AbftKey. A 2^22
 * Goldilocks entry is ~250 MiB, so the bounds are tight: a handful of
 * resident shapes, evicted by recency.
 */
template <NttField F>
class AbftCoefficientCache : public LruCache<AbftKey, AbftCoefficients<F>>
{
    using Base = LruCache<AbftKey, AbftCoefficients<F>>;

  public:
    explicit AbftCoefficientCache(size_t max_entries = 4,
                                  size_t max_bytes = 768ULL << 20)
        : Base(max_entries, max_bytes)
    {
    }

    std::shared_ptr<const AbftCoefficients<F>>
    get(const StageSchedule &sched, const TwiddleSlabs<F> &slabs,
        uint64_t seed, unsigned lanes, bool *hit_out = nullptr)
    {
        return Base::get(
            AbftKey(sched, seed),
            [&] {
                return AbftCoefficients<F>(sched, slabs, seed, lanes);
            },
            hit_out);
    }

    /** The process-wide instance for field F. */
    static AbftCoefficientCache &
    global()
    {
        static AbftCoefficientCache cache;
        return cache;
    }
};

/** Cached lookup on the field's global coefficient cache. */
template <NttField F>
std::shared_ptr<const AbftCoefficients<F>>
cachedAbftCoefficients(const StageSchedule &sched,
                       const TwiddleSlabs<F> &slabs, uint64_t seed,
                       unsigned lanes, bool *hit_out = nullptr)
{
    return AbftCoefficientCache<F>::global().get(sched, slabs, seed,
                                                 lanes, hit_out);
}

} // namespace unintt

#endif // UNINTT_UNINTT_ABFT_HH
