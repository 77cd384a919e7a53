/**
 * @file
 * The abstract hardware model.
 *
 * UniNTT's central idea is that every level of the multi-GPU execution
 * hierarchy — warp, thread block, GPU, multi-GPU — looks the same to the
 * NTT: a set of parallel lanes, a level-local memory, and an exchange
 * primitive with some bandwidth and latency. GpuModel carries the
 * concrete machine parameters (public-spec values for real devices);
 * LevelModel is the abstract per-level view derived from them, and is
 * what the decomposition planner reasons about.
 *
 * This repo has no physical GPU, so the concrete parameters also feed
 * the analytic performance model in perf_model.hh (see DESIGN.md,
 * "Hardware substitution").
 */

#ifndef UNINTT_SIM_HW_MODEL_HH
#define UNINTT_SIM_HW_MODEL_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace unintt {

/**
 * Concrete parameters of one GPU. Bandwidth values are bytes/second,
 * latencies are seconds, rates are per-second.
 */
struct GpuModel
{
    std::string name;

    // Compute.
    unsigned numSms = 108;
    double clockHz = 1.41e9;
    /** 64-bit integer multiply slots per SM per clock. */
    double u64MulsPerClockPerSm = 16.0;
    unsigned warpSize = 32;
    unsigned maxThreadsPerBlock = 1024;

    // Memories.
    double dramBandwidth = 2.0e12;
    double dramLatency = 450e-9;
    uint64_t dramCapacityBytes = 80ULL << 30;
    uint64_t smemBytesPerBlock = 160 << 10;
    unsigned smemBanks = 32;
    /** Shared-memory bytes per SM per clock (all banks). */
    double smemBytesPerClockPerSm = 128.0;

    // Execution overheads.
    double kernelLaunchLatency = 5e-6;
    /** DRAM transaction (sector) size; strided access pays full sectors. */
    unsigned dramSectorBytes = 32;
};

/**
 * Cost of one field operation expressed in 64-bit multiply slots, plus
 * the element footprint. These are the only field-specific inputs of
 * the performance model.
 */
struct FieldCost
{
    const char *name;
    /** u64-multiply slots consumed by one field multiplication. */
    double mulSlots;
    /** u64-multiply slots consumed by one field addition/subtraction. */
    double addSlots;
    /** Bytes per element as stored in device memory. */
    size_t elementBytes;
};

/** Per-field cost constants; specialized for every shipped field. */
template <typename F>
FieldCost fieldCostOf();

/**
 * One level of the abstract hierarchy as seen by the planner: how many
 * lanes work in parallel, how much level-local memory a lane group can
 * see, and what the exchange primitive costs.
 */
struct LevelModel
{
    std::string name;
    /** Parallel sub-units at this level (e.g. 32 lanes, G GPUs). */
    uint64_t fanout;
    /** Capacity of the level-local memory in field elements. */
    uint64_t localCapacityElems;
    /** Exchange bandwidth in bytes/s (aggregate at this level). */
    double exchangeBandwidth;
    /** Fixed latency per exchange operation in seconds. */
    double exchangeLatency;
};

/**
 * Device-memory footprint when every GPU holds one of each of
 * @p buffers (a tag and a byte count) at once: their sum. Passing
 * @p gpu's capacity is a fatal configuration error, as cudaMalloc
 * failing would be; the message names the buffer that did not fit.
 */
uint64_t deviceFootprintBytes(
    const GpuModel &gpu,
    std::initializer_list<std::pair<const char *, uint64_t>> buffers);

/** Pre-parameterized GPU models (public spec sheets). */
GpuModel makeA100();
GpuModel makeH100();
GpuModel makeRtx4090();

/** Look up a GPU model by name ("a100", "h100", "rtx4090"). */
GpuModel gpuModelByName(const std::string &name);

} // namespace unintt

#endif // UNINTT_SIM_HW_MODEL_HH
