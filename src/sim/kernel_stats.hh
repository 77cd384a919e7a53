/**
 * @file
 * Event counters recorded by the functionally executed kernels. The
 * simulated engines tally exactly the events a GPU implementation would
 * generate (arithmetic, DRAM sectors, shared-memory traffic, shuffles,
 * barriers, link bytes); perf_model.hh converts a KernelStats into
 * simulated time.
 */

#ifndef UNINTT_SIM_KERNEL_STATS_HH
#define UNINTT_SIM_KERNEL_STATS_HH

#include <cstdint>

namespace unintt {

/** Counters for one kernel-level execution phase. */
struct KernelStats
{
    // Arithmetic.
    uint64_t fieldMuls = 0;
    uint64_t fieldAdds = 0;
    uint64_t butterflies = 0;

    // Global (DRAM) traffic, in bytes actually moved on the bus.
    // Strided access patterns must account whole sectors.
    uint64_t globalReadBytes = 0;
    uint64_t globalWriteBytes = 0;

    // Intra-block traffic.
    uint64_t smemBytes = 0;
    uint64_t smemBankConflicts = 0;
    uint64_t shuffles = 0;
    uint64_t syncs = 0;

    // Launch overheads.
    uint64_t kernelLaunches = 0;

    /** Total DRAM bytes. */
    uint64_t
    globalBytes() const
    {
        return globalReadBytes + globalWriteBytes;
    }

    /** Accumulate another phase's counters. */
    KernelStats &operator+=(const KernelStats &o);
};

/** Counters for one inter-GPU communication phase. */
struct CommStats
{
    /** Bytes each GPU sends in this phase. */
    uint64_t bytesPerGpu = 0;
    /** Number of exchange operations (stages or message rounds). */
    uint64_t messages = 0;
    /** Retransmissions caused by injected faults (0 on a clean fabric). */
    uint64_t retries = 0;

    CommStats &
    operator+=(const CommStats &o)
    {
        bytesPerGpu += o.bytesPerGpu;
        messages += o.messages;
        retries += o.retries;
        return *this;
    }
};

/**
 * Counters of injected faults and of the resilience machinery's
 * responses to them (retries, checksum detections, degraded re-plans).
 * All zero on a fault-free run.
 */
struct FaultStats
{
    /** Exchange events that consulted a fault injector. */
    uint64_t exchanges = 0;
    /** Retransmissions after transient link failures. */
    uint64_t transientRetries = 0;
    /** Payload corruptions caught by the exchange checksums. */
    uint64_t corruptionsDetected = 0;
    /** Exchanges stretched by a straggling device. */
    uint64_t stragglerEvents = 0;
    /** Permanent device dropouts absorbed. */
    uint64_t devicesLost = 0;
    /** Degraded-mode re-shard + re-plan events. */
    uint64_t degradedReplans = 0;
    /** Post-transform spot-check samples evaluated. */
    uint64_t spotChecks = 0;
    /** Spot-check samples that exposed a wrong output. */
    uint64_t spotCheckFailures = 0;
    /** Payload bytes covered by exchange checksums. */
    uint64_t checksummedBytes = 0;
    /** Exchanges aborted at the straggler watchdog deadline. */
    uint64_t watchdogTimeouts = 0;
    /** Devices excluded up front by the health tracker. */
    uint64_t devicesExcluded = 0;
    /** ABFT checksum comparisons after compute steps. */
    uint64_t abftChecks = 0;
    /** Compute-path corruptions the ABFT checksums caught. */
    uint64_t abftCatches = 0;
    /** Tiles recomputed after ABFT localization. */
    uint64_t tilesRecomputed = 0;
    /** ABFT retry budgets exhausted (escalated to degrade/reschedule). */
    uint64_t abftEscalations = 0;

    /** True iff any counter is nonzero. */
    bool any() const;

    /** Accumulate another phase's counters. */
    FaultStats &operator+=(const FaultStats &o);
};

} // namespace unintt

#endif // UNINTT_SIM_KERNEL_STATS_HH
