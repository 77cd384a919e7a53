#include "unintt/cache.hh"

namespace unintt {

NttPlan
PlanCache::get(unsigned logN, const MultiGpuSystem &sys,
               size_t element_bytes, unsigned force_log_tile,
               bool *hit_out)
{
    const PlanKey key{logN,
                      sys.numGpus,
                      element_bytes,
                      force_log_tile,
                      sys.gpu.maxThreadsPerBlock,
                      sys.gpu.smemBytesPerBlock,
                      sys.gpu.warpSize,
                      sys.gpu.dramCapacityBytes};
    return *LruCache::get(
        key,
        [&] {
            return planNttWithTile(logN, sys, element_bytes,
                                   force_log_tile);
        },
        hit_out);
}

PlanCache &
PlanCache::global()
{
    static PlanCache cache;
    return cache;
}

std::shared_ptr<const StageSchedule>
ScheduleCache::get(const NttPlan &pl, const MultiGpuSystem &sys,
                   NttDirection dir, size_t element_bytes,
                   const UniNttConfig &cfg, const CostConstants &costs,
                   size_t batch, bool *hit_out)
{
    const ScheduleKey key{pl.logN,
                          sys.numGpus,
                          sys.gpusPerNode,
                          static_cast<int>(dir),
                          element_bytes,
                          batch,
                          cfg.forceLogBlockTile,
                          cfg.fuseTwiddles,
                          cfg.onTheFlyTwiddles,
                          cfg.paddedSmem,
                          cfg.warpShuffle,
                          cfg.fuseLocalPasses,
                          cfg.overlapComm,
                          costs.twiddleTableDramFraction,
                          costs.onTheFlyExtraMuls,
                          costs.unpaddedConflictReplays,
                          sys.gpu.maxThreadsPerBlock,
                          sys.gpu.smemBytesPerBlock,
                          sys.gpu.warpSize,
                          sys.gpu.dramCapacityBytes,
                          sys.gpu.dramSectorBytes};
    return LruCache::get(
        key,
        [&] {
            ScheduleOptions opts;
            opts.batch = batch;
            return compileSchedule(pl, sys, dir, element_bytes, cfg, costs,
                                   opts);
        },
        hit_out);
}

ScheduleCache &
ScheduleCache::global()
{
    static ScheduleCache cache;
    return cache;
}

} // namespace unintt
