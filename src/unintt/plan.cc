#include "unintt/plan.hh"

#include <sstream>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace unintt {

std::string
NttPlan::toString() const
{
    std::ostringstream os;
    os << "2^" << logN << " = ";
    if (logMg > 0)
        os << "mgpu(" << logMg << ")";
    for (size_t i = 0; i < passes.size(); ++i) {
        if (logMg > 0 || i > 0)
            os << " * ";
        os << "pass(" << passes[i].bits << ")";
    }
    return os.str();
}

NttPlan
planNtt(unsigned logN, const MultiGpuSystem &sys, size_t element_bytes)
{
    return planNttWithTile(logN, sys, element_bytes, 0);
}

NttPlan
planNttWithTile(unsigned logN, const MultiGpuSystem &sys,
                size_t element_bytes, unsigned force_log_tile)
{
    if (logN >= 64)
        fatal("transform 2^%u does not fit a 64-bit size", logN);
    if (!isPow2(sys.numGpus))
        fatal("UniNTT requires a power-of-two GPU count, got %u",
              sys.numGpus);

    NttPlan plan;
    plan.logN = logN;
    plan.numGpus = sys.numGpus;
    plan.logMg = log2Exact(sys.numGpus);
    if (logN < plan.logMg + 1)
        fatal("transform 2^%u too small for %u GPUs", logN, sys.numGpus);

    // Capacity check: the engine keeps data plus one exchange buffer
    // per GPU resident.
    uint64_t per_gpu_bytes =
        ((1ULL << logN) / sys.numGpus) * element_bytes * 2;
    if (per_gpu_bytes > sys.gpu.dramCapacityBytes)
        fatal("transform 2^%u does not fit: needs %llu bytes/GPU of %llu",
              logN, static_cast<unsigned long long>(per_gpu_bytes),
              static_cast<unsigned long long>(sys.gpu.dramCapacityBytes));

    // Block tile: bounded by two elements per thread and by staging the
    // tile (double-buffered) in shared memory.
    uint64_t by_threads = 2ULL * sys.gpu.maxThreadsPerBlock;
    uint64_t by_smem = sys.gpu.smemBytesPerBlock / (2 * element_bytes);
    uint64_t tile = std::min(by_threads, nextPow2(by_smem + 1) / 2);
    plan.logBlockTile = log2Floor(tile);
    if (force_log_tile != 0) {
        if (force_log_tile > log2Floor(by_smem * 2))
            fatal("forced tile 2^%u does not fit in shared memory",
                  force_log_tile);
        plan.logBlockTile = force_log_tile;
    }
    plan.logWarp = log2Exact(sys.gpu.warpSize);

    // Split the local bits into the minimum number of grid passes and
    // balance the bits across them: every pass costs one full-array
    // memory round trip regardless of its width, and an unbalanced
    // split lets a wide pass's butterfly compute poke above the memory
    // roofline while narrow passes waste it (found by the tile-size
    // sensitivity study, bench/fig16_tile_size).
    unsigned remaining = plan.localBits();
    unsigned num_passes =
        (remaining + plan.logBlockTile - 1) / plan.logBlockTile;
    for (unsigned i = 0; i < num_passes; ++i) {
        unsigned left = num_passes - i;
        unsigned bits = (remaining + left - 1) / left; // even split
        GridPassPlan pass;
        pass.bits = bits;
        pass.warpRounds = (bits + plan.logWarp - 1) / plan.logWarp;
        plan.passes.push_back(pass);
        remaining -= bits;
    }
    UNINTT_ASSERT(remaining == 0, "pass split did not cover all bits");

    return plan;
}

} // namespace unintt
