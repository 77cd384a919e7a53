/**
 * @file
 * Execution timeline of one simulated run. Engines append kernel and
 * communication phases; the report aggregates simulated time, keeps the
 * raw event counters, and can render itself for the benches.
 */

#ifndef UNINTT_SIM_REPORT_HH
#define UNINTT_SIM_REPORT_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel_stats.hh"
#include "sim/perf_model.hh"

namespace unintt {

/** One phase of a simulated execution. */
struct SimPhase
{
    enum class Kind { Kernel, Comm };

    std::string name;
    Kind kind;
    /** Simulated seconds this phase contributes to the critical path. */
    double seconds = 0;
    /**
     * Seconds of this phase that were hidden behind another phase
     * (communication/computation overlap); informational.
     */
    double hiddenSeconds = 0;
    KernelStats kernel;
    CommStats comm;
    /**
     * IR attribution (unintt/schedule.hh): the step kind and hierarchy
     * level this phase was dispatched from. Empty for phases emitted
     * outside the schedule interpreter (baselines, prover passes).
     */
    std::string step;
    std::string level;
};

/**
 * Host-side execution facts of one run: how many host threads executed
 * the functional work and how the plan/twiddle caches behaved. Purely
 * informational — the simulated timeline and every simulated counter
 * are identical across thread counts and cache temperatures.
 */
struct HostExecStats
{
    /** Host lanes the functional work was allowed to use (0 = unset). */
    unsigned hostThreads = 0;
    uint64_t planCacheHits = 0;
    uint64_t planCacheMisses = 0;
    uint64_t twiddleCacheHits = 0;
    uint64_t twiddleCacheMisses = 0;
    uint64_t twiddleSlabHits = 0;
    uint64_t twiddleSlabMisses = 0;
    uint64_t scheduleCacheHits = 0;
    uint64_t scheduleCacheMisses = 0;
    /** FusedLocalPass steps the dispatched schedule contained. */
    uint64_t fusedGroups = 0;
    /** Waves of the DAG overlay dispatched (overlapped schedules). */
    uint64_t overlapWaves = 0;
    /** Exchange chunk nodes of the overlapped schedule (functional runs). */
    uint64_t exchangeChunks = 0;
    /**
     * Resolved kernel acceleration path name (field/dispatch.hh):
     * "scalar", "avx2", ... Empty = unset; "mixed" after merging runs
     * bound to different paths. A string so the sim layer stays
     * independent of the field-layer enum.
     */
    std::string isaPath;
    /** Vector lanes of the bound kernel table (0 = unset). */
    unsigned isaLanes = 0;
    /** Span-kernel fan-outs dispatched through the bound table. */
    uint64_t isaDispatches = 0;
    /** Runs whose knobs came from a tuning-DB hit (unintt/tunedb.hh). */
    uint64_t tunedSchedules = 0;
    /** Runs that fell back to the built-in heuristic. */
    uint64_t heuristicSchedules = 0;
    /** DB-supplied tiles raised to the lane-aware floor this run. */
    uint64_t tuneClampWarnings = 0;

    /** True iff anything was recorded. */
    bool
    any() const
    {
        return hostThreads != 0 || planCacheHits || planCacheMisses ||
               twiddleCacheHits || twiddleCacheMisses ||
               twiddleSlabHits || twiddleSlabMisses ||
               scheduleCacheHits || scheduleCacheMisses ||
               fusedGroups || overlapWaves || exchangeChunks ||
               !isaPath.empty() || isaLanes != 0 || isaDispatches ||
               tunedSchedules || heuristicSchedules ||
               tuneClampWarnings;
    }

    /** Combine with another run's host facts (report append). */
    HostExecStats &
    operator+=(const HostExecStats &o)
    {
        hostThreads = std::max(hostThreads, o.hostThreads);
        planCacheHits += o.planCacheHits;
        planCacheMisses += o.planCacheMisses;
        twiddleCacheHits += o.twiddleCacheHits;
        twiddleCacheMisses += o.twiddleCacheMisses;
        twiddleSlabHits += o.twiddleSlabHits;
        twiddleSlabMisses += o.twiddleSlabMisses;
        scheduleCacheHits += o.scheduleCacheHits;
        scheduleCacheMisses += o.scheduleCacheMisses;
        fusedGroups += o.fusedGroups;
        overlapWaves += o.overlapWaves;
        exchangeChunks += o.exchangeChunks;
        if (!o.isaPath.empty()) {
            if (isaPath.empty())
                isaPath = o.isaPath;
            else if (isaPath != o.isaPath)
                isaPath = "mixed";
        }
        isaLanes = std::max(isaLanes, o.isaLanes);
        isaDispatches += o.isaDispatches;
        tunedSchedules += o.tunedSchedules;
        heuristicSchedules += o.heuristicSchedules;
        tuneClampWarnings += o.tuneClampWarnings;
        return *this;
    }
};

/**
 * Multi-tenant service outcome counters for one tenant (or the
 * aggregate): how admission, scheduling and the deadline watchdog
 * treated the tenant's jobs. Produced by the proving service
 * (src/service/) and surfaced through SimReport so service runs report
 * through the same channel as engine runs.
 */
struct ServiceCounters
{
    uint64_t submitted = 0;
    /** Jobs accepted into the queue. */
    uint64_t admitted = 0;
    /** Jobs rejected by load shedding (queue at capacity). */
    uint64_t shed = 0;
    /** Jobs rejected by the tenant's admission quota. */
    uint64_t quotaRejected = 0;
    /** Jobs that completed with an OK status inside their deadline. */
    uint64_t completed = 0;
    /** Jobs that failed cleanly (non-OK status, not deadline). */
    uint64_t failed = 0;
    /** Service-level retry attempts (capped backoff + jitter). */
    uint64_t retried = 0;
    /** Jobs run (or re-run) on a smaller GPU placement. */
    uint64_t degraded = 0;
    /** Jobs cancelled by the deadline watchdog. */
    uint64_t deadlineMissed = 0;
    /** Jobs whose transform rode a coalesced batched launch. */
    uint64_t coalesced = 0;

    /** True iff any counter is nonzero. */
    bool any() const;

    /** Accumulate another tenant's (or run's) counters. */
    ServiceCounters &operator+=(const ServiceCounters &o);
};

/** Accumulated timeline and counters of one simulated run. */
class SimReport
{
  public:
    /** Append a kernel phase priced by @p model; returns its seconds. */
    double addKernelPhase(const std::string &name,
                          const KernelStats &stats, const PerfModel &model);

    /** Append a communication phase with externally computed time. */
    void addCommPhase(const std::string &name, double seconds,
                      const CommStats &stats, double hidden_seconds = 0);

    /**
     * Attribute the most recently added phase to a schedule step
     * (step kind + hierarchy level); no-op on an empty report.
     */
    void tagLastPhase(const char *step, const char *level);

    /** All phases in execution order. */
    const std::vector<SimPhase> &phases() const { return phases_; }

    /** Total simulated seconds (critical path). */
    double totalSeconds() const;

    /** Simulated seconds spent in kernel phases. */
    double kernelSeconds() const;

    /** Simulated seconds spent in (non-hidden) communication. */
    double commSeconds() const;

    /** Sum of counters over all kernel phases. */
    KernelStats totalKernelStats() const;

    /** Sum of counters over all communication phases. */
    CommStats totalCommStats() const;

    /** Merge (append) another report's phases into this one. */
    void append(const SimReport &other);

    /** Merge resilience counters observed during the run. */
    void addFaultStats(const FaultStats &f) { faults_ += f; }

    /** Fault/resilience counters (all zero on a fault-free run). */
    const FaultStats &faultStats() const { return faults_; }

    /** Merge host-side execution facts (threads, cache hits). */
    void addHostExecStats(const HostExecStats &h) { hostExec_ += h; }

    /** Host-side execution facts (zero when never recorded). */
    const HostExecStats &hostExecStats() const { return hostExec_; }

    /**
     * Merge service outcome counters attributed to @p tenant ("" for
     * the aggregate row). Rows merge by tenant label, so appending
     * reports sums per-tenant counters.
     */
    void addServiceCounters(const std::string &tenant,
                            const ServiceCounters &c);

    /** Per-tenant service counters, in first-seen order. */
    const std::vector<std::pair<std::string, ServiceCounters>> &
    serviceCounters() const
    {
        return service_;
    }

    /** Record the per-GPU peak device-memory footprint. */
    void
    setPeakDeviceBytes(uint64_t bytes)
    {
        peakDeviceBytes_ = std::max(peakDeviceBytes_, bytes);
    }

    /** Per-GPU peak device-memory footprint (0 if not tracked). */
    uint64_t peakDeviceBytes() const { return peakDeviceBytes_; }

    /** Multi-line human-readable phase listing. */
    std::string toString() const;

  private:
    std::vector<SimPhase> phases_;
    uint64_t peakDeviceBytes_ = 0;
    FaultStats faults_;
    HostExecStats hostExec_;
    std::vector<std::pair<std::string, ServiceCounters>> service_;
};

} // namespace unintt

#endif // UNINTT_SIM_REPORT_HH
