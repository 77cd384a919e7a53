/**
 * @file
 * Host-side result caches of the UniNTT front end.
 *
 * PlanCache memoizes the decomposition planner: batch benches and
 * prover loops run thousands of transforms of identical shape, and
 * while one planNtt call is cheap, re-deriving the plan (and, on the
 * engine's functional path, the twiddle table — see
 * ntt/twiddle_cache.hh for that half) on every transform adds a
 * constant per-call tax the paper's real GPU runtimes do not pay.
 *
 * The cache key is everything the planner reads: the transform size,
 * the GPU count, the element footprint (the field), the forced tile
 * override, and the per-GPU limits of the hardware model. Both caches
 * are LruCache subclasses (util/lru_cache.hh): LRU-evicted beyond a
 * fixed bound, shared by concurrent host threads, one build per key.
 */

#ifndef UNINTT_UNINTT_CACHE_HH
#define UNINTT_UNINTT_CACHE_HH

#include <cstdint>
#include <memory>

#include "sim/multi_gpu.hh"
#include "unintt/plan.hh"
#include "unintt/schedule.hh"
#include "util/lru_cache.hh"

namespace unintt {

/** Exactly the planner inputs; equality means the plans match. */
struct PlanKey
{
    unsigned logN;
    unsigned numGpus;
    size_t elementBytes;
    unsigned forceLogTile;
    unsigned maxThreadsPerBlock;
    uint64_t smemBytesPerBlock;
    unsigned warpSize;
    uint64_t dramCapacityBytes;

    bool operator==(const PlanKey &) const = default;
};

/** Thread-safe LRU memo of planNttWithTile results. */
class PlanCache : public LruCache<PlanKey, NttPlan>
{
  public:
    explicit PlanCache(size_t max_entries = 64) : LruCache(max_entries) {}

    /**
     * The plan for a 2^logN transform on @p sys, computed on the first
     * request with planNttWithTile and replayed afterwards. @p hit_out
     * (optional) reports whether this call was served from the cache.
     * Invalid sizes are fatal exactly as in planNttWithTile.
     */
    NttPlan get(unsigned logN, const MultiGpuSystem &sys,
                size_t element_bytes, unsigned force_log_tile,
                bool *hit_out = nullptr);

    /** The process-wide instance. */
    static PlanCache &global();
};

/** Everything compileSchedule reads (for the plain variant). */
struct ScheduleKey
{
    unsigned logN;
    unsigned numGpus;
    unsigned gpusPerNode;
    int dir;
    size_t elementBytes;
    size_t batch;
    unsigned forceLogTile;
    bool fuseTwiddles;
    bool onTheFlyTwiddles;
    bool paddedSmem;
    bool warpShuffle;
    bool naturalOrderOutput;
    bool fuseLocalPasses;
    /**
     * Overlap decides whether the DAG splits the cross phase: a linear
     * schedule must never be served to an overlapped run (or vice
     * versa).
     */
    bool overlapComm;
    unsigned hostTileLog2;
    /**
     * Resolved acceleration path (field/dispatch.hh): the fused tile
     * floor depends on the active lane width, so schedules compiled
     * under different paths must never alias.
     */
    unsigned isaPath;
    /**
     * Tuning-DB provenance: a schedule compiled from a DB entry must
     * never alias a heuristic one (or vice versa), even when today's
     * knobs happen to coincide — a DB refresh changes the tuned side
     * without touching the heuristic side.
     */
    bool tuned;
    double twiddleTableDramFraction;
    double onTheFlyExtraMuls;
    double unpaddedConflictReplays;
    unsigned maxThreadsPerBlock;
    uint64_t smemBytesPerBlock;
    unsigned warpSize;
    uint64_t dramCapacityBytes;
    unsigned dramSectorBytes;

    bool operator==(const ScheduleKey &) const = default;
};

/**
 * Thread-safe LRU memo of compiled stage schedules (schedule.hh).
 *
 * A schedule stores unpriced event counters, so it is a pure function
 * of the plan inputs plus the optimization toggles, the cost constants
 * and the batch size — GPU clock and fabric parameters price the steps
 * at dispatch time and stay out of the key. Only plain (non-resilient,
 * non-resume) schedules are cached; resilient runs recompile after
 * every degradation and are the cold path by definition.
 */
class ScheduleCache : public LruCache<ScheduleKey, StageSchedule>
{
  public:
    explicit ScheduleCache(size_t max_entries = 64) : LruCache(max_entries) {}

    /**
     * The compiled schedule of @p pl for one direction and batch size,
     * compiled on the first request and replayed afterwards. The plan
     * must come from the same inputs (PlanCache guarantees this on the
     * engine path). @p hit_out (optional) reports cache service.
     */
    std::shared_ptr<const StageSchedule>
    get(const NttPlan &pl, const MultiGpuSystem &sys, NttDirection dir,
        size_t element_bytes, const UniNttConfig &cfg,
        const CostConstants &costs, size_t batch,
        bool *hit_out = nullptr, bool tuned = false);

    /** The process-wide instance. */
    static ScheduleCache &global();
};

} // namespace unintt

#endif // UNINTT_UNINTT_CACHE_HH
