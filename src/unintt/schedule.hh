/**
 * @file
 * The compiled stage-schedule IR of the UniNTT engine.
 *
 * A plan (plan.hh) describes the hierarchical factorization of one
 * transform; compileSchedule lowers it into a StageSchedule — an
 * ordered list of typed steps, each carrying the precomputed event
 * counters (KernelStats/CommStats), the interconnect distance of its
 * exchange, and the twiddle slice its butterflies read. The schedule is
 * the single source of truth for *what* a transform does; the
 * executors (executors.hh) only decide *how* each step runs (analytic
 * pricing, bit-exact host execution, or resilient execution with the
 * fault machinery), so the three entry points of the engine can never
 * drift apart.
 *
 * Steps are stored with unpriced counters: pricing (PerfModel,
 * Interconnect) happens at dispatch time. This keeps the schedule a
 * pure function of the plan inputs plus the optimization toggles and
 * cost constants, which is what makes it cacheable (ScheduleCache,
 * cache.hh).
 *
 * The inverse's n^-1 is no step of its own: a scalar commutes with
 * every step, so the first one carries it (applyInverseScale).
 *
 * Step order is dataflow order: an Exchange step precedes the
 * CrossStage butterflies that consume the received chunk. Executors
 * preserve the report's historical phase order (compute first, then
 * the exchange with its overlap split) by holding the resolved
 * Exchange until its CrossStage has been priced.
 *
 * Every schedule also carries a dependency DAG *overlay* (the step
 * list itself is untouched), and the executors dispatch it wave by
 * wave. Every step is covered by one or more ScheduleDagNodes, and
 * nodes are levelled into waves by longest dependency path. A linear
 * schedule is one node per step, each in its own wave. When comm
 * overlap is enabled on a multi-GPU plan, Exchange/CrossStage steps
 * are split into double-buffered half-chunk nodes: the chunk-aligned
 * edges between an exchange and the butterflies that feed/consume it
 * stagger the waves so that the copy of chunk k+1 shares a wave with
 * the butterflies of chunk k — that shared wave is what the executors
 * overlap (priced as max(comm, compute)).
 */

#ifndef UNINTT_UNINTT_SCHEDULE_HH
#define UNINTT_UNINTT_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ntt/ntt.hh"
#include "sim/kernel_stats.hh"
#include "sim/multi_gpu.hh"
#include "unintt/config.hh"
#include "unintt/plan.hh"

namespace unintt {

/** The step taxonomy of the IR. */
enum class StepKind
{
    /** Pairwise cross-GPU chunk exchange feeding a CrossStage. */
    Exchange,
    /** Butterflies of one cross-GPU stage (after its Exchange). */
    CrossStage,
    /** One grid pass: butterflies of a GPU-local stage range. */
    LocalPass,
    /**
     * A tile-fused group of consecutive local stages: each
     * 2^tileLog2-element tile is loaded once, every stage of the group
     * runs in-tile, and the tile is written back once. Same butterfly
     * coverage as the LocalPass steps it replaces, fewer global round
     * trips.
     */
    FusedLocalPass,
    /**
     * Elementwise pass: an explicit twiddle pass (twiddle fusion off),
     * priced but a no-op on the host, whose butterflies already apply
     * every factor.
     */
    Scale,
    /** Post-transform verification against a direct evaluation. */
    SpotCheck,
};

/** Hierarchy level a step executes at. */
enum class ExecLevel
{
    Warp,
    Block,
    Gpu,
    MultiGpu,
    Node,
};

const char *toString(StepKind kind);
const char *toString(ExecLevel level);

/** One typed step of a compiled schedule. */
struct ScheduleStep
{
    StepKind kind;
    ExecLevel level;
    /** Exact phase name this step emits into the SimReport. */
    std::string name;

    /** Stage range [sBegin, sEnd) covered (butterfly steps). */
    unsigned sBegin = 0;
    unsigned sEnd = 0;
    /** Grid-pass shape (LocalPass / FusedLocalPass). */
    GridPassPlan pass{0, 0};
    /** log2 of the resident tile (FusedLocalPass only). */
    unsigned tileLog2 = 0;
    /** Partner gap in GPU indices (Exchange/CrossStage). */
    unsigned distance = 0;
    /** Hop distance on the fabric actually used. */
    unsigned effectiveDistance = 0;
    /** True iff the exchange crosses node boundaries. */
    bool crossesNodes = false;
    /** True for a cross stage executed locally after degradation. */
    bool degraded = false;
    /**
     * True for the step whose kernel also multiplies by the inverse's
     * n^-1: the first step of a full inverse schedule, a local pass.
     */
    bool applyInverseScale = false;

    /**
     * ABFT annotation: per-GPU elements folded into the post-step
     * random-linear-combination checksum comparison (0 = the step has
     * no ABFT transition — non-compute steps, or ABFT off). The O(n)
     * cost of the comparison is already included in @p stats, so every
     * executor prices the hardening tax identically; the resilient
     * executor additionally performs the comparison and the tile
     * localization it enables.
     */
    uint64_t abftCheckElems = 0;

    /** Unpriced per-GPU event counters of the step's kernel. */
    KernelStats stats;
    /** Unpriced communication counters (Exchange). */
    CommStats comm;
};

/**
 * One node of the dependency-DAG overlay. A node covers the element
 * slice [sliceBegin, sliceEnd) of every per-GPU chunk touched by its
 * step; unsplit steps have a single node spanning the whole chunk.
 * Edges always point at earlier nodes (deps[i] < its own index), so
 * the overlay is acyclic by construction.
 */
struct ScheduleDagNode
{
    /** Index into StageSchedule::steps. */
    uint32_t step = 0;
    /** Chunk index within the step (double buffering parity). */
    uint32_t chunk = 0;
    /** Chunks the step was split into (1 = unsplit). */
    uint32_t chunkCount = 1;
    /** Element slice [begin, end) of each per-GPU chunk. */
    uint64_t sliceBegin = 0;
    uint64_t sliceEnd = 0;
    /** Wave index: longest dependency path from a root. */
    uint32_t wave = 0;
    /** Predecessor node indices (all < this node's index). */
    std::vector<uint32_t> deps;
};

/** A fully compiled transform: the ordered step list plus metadata. */
struct StageSchedule
{
    unsigned logN = 0;
    NttDirection dir = NttDirection::Forward;
    size_t batch = 1;
    /** The plan this schedule was lowered from. */
    NttPlan plan;
    /** Per-GPU peak device-memory footprint of the transform. */
    uint64_t peakDeviceBytes = 0;
    /** True iff compiled with the resilience additions. */
    bool resilient = false;
    std::vector<ScheduleStep> steps;

    /**
     * True iff the DAG splits the cross phase into overlapping chunks
     * (cfg.overlapComm with a multi-GPU plan); false for a linear
     * schedule, one node per step.
     */
    bool overlapped = false;
    /** The DAG overlay, in step order. */
    std::vector<ScheduleDagNode> dag;
    /** Node indices grouped by wave, waves in execution order. */
    std::vector<std::vector<uint32_t>> waves;

    /** Human-readable step table (unintt-cli schedule). */
    std::string toString() const;
};

/** Compile-time options beyond the plan itself. */
struct ScheduleOptions
{
    /** Batch multiplier applied to data-proportional counters. */
    size_t batch = 1;
    /**
     * Compile for resilient execution: cross stages carry the
     * checksum generation/verification adds, and a SpotCheck step is
     * appended when spotChecks > 0.
     */
    bool resilient = false;
    /** Spot checks of the appended SpotCheck step (resilient only). */
    unsigned spotChecks = 0;
    /**
     * Annotate compute steps with their ABFT checksum transition and
     * fold the O(n) comparison cost into their stats (resilient only;
     * mirrors ResilienceConfig::abft).
     */
    bool abft = false;
    /**
     * Resume compilation after a mid-run degradation: emit only the
     * steps from @p resumeStage onward (forward: upward from it;
     * inverse: downward from it, the local passes, n^-1 included,
     * already ran).
     */
    bool resume = false;
    unsigned resumeStage = 0;
    /**
     * logMg of the original (pre-degradation) plan; gates the explicit
     * mgpu twiddle pass, which the un-fused algorithm owes whenever
     * the transform *started* with cross-GPU stages.
     */
    unsigned origLogMg = 0;
};

/**
 * Lower @p pl into a schedule for one direction. @p element_bytes is
 * the field element footprint (the only field property the counters
 * depend on). The full (non-resume) compile covers every stage; see
 * ScheduleOptions for the resilient/resume variants.
 */
StageSchedule compileSchedule(const NttPlan &pl, const MultiGpuSystem &sys,
                              NttDirection dir, size_t element_bytes,
                              const UniNttConfig &cfg,
                              const CostConstants &costs,
                              const ScheduleOptions &opts = {});

/** Event counters of one cross-GPU stage (per GPU). */
KernelStats crossStageEventStats(uint64_t chunk, size_t batch,
                                 size_t element_bytes,
                                 const UniNttConfig &cfg,
                                 const CostConstants &costs);

/** Event counters of one grid pass (per GPU). */
KernelStats gridPassEventStats(uint64_t chunk, const GridPassPlan &pass,
                               size_t batch, size_t element_bytes,
                               const UniNttConfig &cfg,
                               const CostConstants &costs);

/** Event counters of one explicit twiddle pass (fusion off). */
KernelStats twiddlePassEventStats(uint64_t chunk, size_t batch,
                                  size_t element_bytes);

} // namespace unintt

#endif // UNINTT_UNINTT_SCHEDULE_HH
