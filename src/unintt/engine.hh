/**
 * @file
 * The UniNTT execution engine.
 *
 * The engine runs a radix-2 transform whose stages are assigned to the
 * hierarchy levels chosen by the planner (plan.hh):
 *
 *  - the first logMg stages (forward direction) are cross-GPU
 *    butterflies: every GPU exchanges its whole chunk with one partner
 *    and applies butterflies with fused twiddles — the same NTT
 *    computation as everywhere else, at multi-GPU scale;
 *  - the remaining stages are grouped into grid passes; each pass
 *    stages a block tile in shared memory and resolves its bits with
 *    warp-scale shuffle rounds glued by shared-memory exchanges.
 *
 * Because the per-element twiddle exponents of a plain radix-2
 * decimation-in-frequency transform already include the inter-sub-NTT
 * factors, executing the stages hierarchically IS the overhead-free
 * decomposition: no separate twiddle pass exists unless fusion is
 * disabled (in which case the engine emulates the four-step-style
 * explicit passes for the ablation study).
 *
 * The plan is lowered once into a stage-schedule IR (schedule.hh,
 * cached process-wide by ScheduleCache) and every entry point —
 * forward/inverse, the batched variants, analyticRun, and the
 * resilient paths — is a thin dispatch of that one schedule through an
 * executor (executors.hh): analytic pricing, bit-exact host-parallel
 * execution, or the resilient decorator with the checksum/retry/
 * health/watchdog machinery. Orderings: Forward maps natural input to
 * globally bit-reversed output; Inverse maps bit-reversed input back
 * to natural order, including the n^-1 scaling, which rides in the
 * inverse's first local pass rather than a sweep of its own.
 */

#ifndef UNINTT_UNINTT_ENGINE_HH
#define UNINTT_UNINTT_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "field/dispatch.hh"
#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "ntt/twiddle.hh"
#include "sim/fault.hh"
#include "sim/multi_gpu.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"
#include "unintt/cache.hh"
#include "unintt/config.hh"
#include "unintt/distributed.hh"
#include "unintt/executors.hh"
#include "unintt/health.hh"
#include "unintt/plan.hh"
#include "unintt/schedule.hh"
#include "unintt/verify.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

namespace unintt {

/** Multi-GPU NTT engine implementing the UniNTT algorithm. */
template <NttField F>
class UniNttEngine
{
  public:
    /**
     * @param sys   simulated machine (GPU count must be a power of 2).
     * @param cfg   optimization toggles.
     * @param costs model constants for the optimization trade-offs.
     */
    explicit UniNttEngine(MultiGpuSystem sys,
                          UniNttConfig cfg = UniNttConfig::allOn(),
                          CostConstants costs = CostConstants{})
        : sys_(std::move(sys)),
          cfg_(cfg),
          costs_(costs),
          perf_(sys_.gpu, fieldCostOf<F>())
    {
        if (cfg_.autoTuneTwiddles)
            cfg_.onTheFlyTwiddles = onTheFlyTwiddlesAreCheaper();
    }

    /**
     * The abstract-model comparison behind the twiddle auto-tune: the
     * marginal compute of generating a twiddle versus the marginal
     * DRAM traffic of loading it.
     */
    bool
    onTheFlyTwiddlesAreCheaper() const
    {
        const FieldCost &fc = perf_.field();
        double generate_s =
            costs_.onTheFlyExtraMuls * fc.mulSlots / perf_.mulSlotRate();
        double load_s = costs_.twiddleTableDramFraction *
                        static_cast<double>(fc.elementBytes) /
                        sys_.gpu.dramBandwidth;
        return generate_s <= load_s;
    }

    /** The machine this engine targets. */
    const MultiGpuSystem &system() const { return sys_; }

    /** The active optimization configuration. */
    const UniNttConfig &config() const { return cfg_; }

    /** Decomposition the engine will use for a 2^logN transform. */
    NttPlan
    plan(unsigned logN) const
    {
        return cachedPlan<F>(logN, sys_, cfg_);
    }

    /**
     * The compiled stage schedule for a 2^logN x batch transform — the
     * IR every entry point dispatches (served from the process-wide
     * ScheduleCache). @p plan_hit_out and @p sched_hit_out (optional)
     * report how the caches behaved.
     */
    std::shared_ptr<const StageSchedule>
    schedule(unsigned logN, NttDirection dir, size_t batch = 1,
             bool *plan_hit_out = nullptr,
             bool *sched_hit_out = nullptr) const
    {
        const NttPlan pl = cachedPlan<F>(logN, sys_, cfg_, plan_hit_out);
        return ScheduleCache::global().get(pl, sys_, dir, sizeof(F), cfg_,
                                           costs_, batch, sched_hit_out);
    }

    /**
     * Host lanes the functional execution may use: the configured
     * count, or every lane of the shared pool when the config says 0.
     */
    unsigned
    hostLanes() const
    {
        return cfg_.hostThreads != 0 ? cfg_.hostThreads
                                     : ThreadPool::defaultLanes();
    }

    /**
     * The span-kernel table the functional execution is bound to: the
     * configured isaPath resolved through the acceleration router
     * (UNINTT_FORCE_ISA > cfg.isaPath > CPU probe, with unsupported
     * requests falling down the ladder). Every table is byte-identical
     * — this only selects how fast the butterflies run.
     */
    const FieldKernels<F> &
    kernels() const
    {
        return fieldKernels<F>(cfg_.isaPath);
    }

    /**
     * Forward NTT in place: natural order in, globally bit-reversed
     * order out.
     * Returns the simulated timeline.
     */
    SimReport
    forward(DistributedVector<F> &data) const
    {
        std::vector<DistributedVector<F> *> batch{&data};
        return run(log2Exact(data.size()), NttDirection::Forward, batch);
    }

    /** Inverse NTT in place: bit-reversed in, natural out, scaled. */
    SimReport
    inverse(DistributedVector<F> &data) const
    {
        std::vector<DistributedVector<F> *> batch{&data};
        return run(log2Exact(data.size()), NttDirection::Inverse, batch);
    }

    /**
     * Forward NTT with the resilience machinery engaged, on a machine
     * whose faults @p faults injects: every cross-GPU exchange is
     * checksummed, transient faults are retried with bounded
     * exponential backoff, a permanent device loss re-shards the data
     * onto the surviving power-of-two subset and re-plans the rest of
     * the transform, and the output is spot-checked against a direct
     * evaluation. All recovery time and traffic is priced into the
     * returned report, and the injected/handled events appear in its
     * faultStats(). Runtime faults that exceed the configured budgets
     * come back as a non-ok Status, never as a process exit.
     *
     * On success @p data may be sharded over fewer GPUs than it
     * started with (degraded mode); the plain forward()/inverse()
     * paths are untouched by all of this and pay zero overhead.
     *
     * When a DeviceHealthTracker is supplied, devices it has
     * quarantined are excluded from the plan up front (the data is
     * resharded onto the largest healthy power-of-two subset before
     * the transform starts), every fault this run observes is
     * attributed back to the tracker, and the tracker's run clock is
     * advanced on every exit path — so flakiness discovered in one
     * transform shapes the plan of the next.
     */
    Result<SimReport>
    forwardResilient(DistributedVector<F> &data, FaultInjector &faults,
                     const ResilienceConfig &rc = ResilienceConfig{},
                     DeviceHealthTracker *health = nullptr) const
    {
        return runResilient(NttDirection::Forward, data, faults, rc,
                            health);
    }

    /** Resilient inverse NTT; see forwardResilient. */
    Result<SimReport>
    inverseResilient(DistributedVector<F> &data, FaultInjector &faults,
                     const ResilienceConfig &rc = ResilienceConfig{},
                     DeviceHealthTracker *health = nullptr) const
    {
        return runResilient(NttDirection::Inverse, data, faults, rc,
                            health);
    }

    /**
     * Batched forward transform over independent equal-size inputs.
     * Kernel launches are amortized over the batch (one launch per
     * pass), the data-proportional costs scale with the batch size.
     */
    SimReport
    forwardBatch(std::vector<DistributedVector<F>> &batch) const
    {
        UNINTT_ASSERT(!batch.empty(), "empty batch");
        std::vector<DistributedVector<F> *> ptrs;
        for (auto &b : batch)
            ptrs.push_back(&b);
        return run(log2Exact(batch[0].size()), NttDirection::Forward,
                   ptrs);
    }

    /** Batched inverse transform; see forwardBatch. */
    SimReport
    inverseBatch(std::vector<DistributedVector<F>> &batch) const
    {
        UNINTT_ASSERT(!batch.empty(), "empty batch");
        std::vector<DistributedVector<F> *> ptrs;
        for (auto &b : batch)
            ptrs.push_back(&b);
        return run(log2Exact(batch[0].size()), NttDirection::Inverse,
                   ptrs);
    }

    /**
     * Analytic-only run: produce the simulated timeline of a
     * 2^logN x batch transform without touching data. Used for sweeps
     * beyond the sizes that are practical to execute functionally.
     */
    SimReport
    analyticRun(unsigned logN, NttDirection dir, size_t batch = 1) const
    {
        std::vector<DistributedVector<F> *> empty;
        return run(logN, dir, empty, batch);
    }

    /**
     * Coset forward NTT (low-degree extension): transforms the
     * evaluations onto the coset shift * <w>, i.e. output position k
     * holds P(shift * w^k) in bit-reversed order. The coefficient
     * scaling by shift^i fuses into the first pass when twiddle fusion
     * is on; otherwise it costs an explicit pass, exactly like the
     * other decomposition twiddles.
     */
    SimReport
    forwardCoset(DistributedVector<F> &data, F shift) const
    {
        const unsigned logN = log2Exact(data.size());
        const uint64_t C = data.chunkSize();
        SimReport report;

        // Functional scaling by shift^i, i the global index.
        for (unsigned g = 0; g < data.numGpus(); ++g)
            scaleByPowers(data.chunk(g).data(), data.chunk(g).size(),
                          shift.pow(static_cast<uint64_t>(g) * C), shift);
        KernelStats k;
        k.fieldMuls = 2 * C; // scale + running shift power
        if (!cfg_.fuseTwiddles) {
            k.globalReadBytes = C * sizeof(F);
            k.globalWriteBytes = C * sizeof(F);
            k.kernelLaunches = 1;
        }
        report.addKernelPhase(cfg_.fuseTwiddles ? "coset-scale-fused"
                                                : "coset-scale-pass",
                              k, perf_);
        UNINTT_ASSERT(logN == log2Exact(data.size()), "size changed");
        report.append(forward(data));
        return report;
    }

  private:
    /**
     * Shared implementation: compile (or fetch) the schedule and
     * dispatch it through the analytic or functional executor.
     * @p batch holds the functional data (may be empty for analytic
     * runs, in which case @p analytic_batch supplies the batch
     * multiplier).
     */
    SimReport run(unsigned logN, NttDirection dir,
                  std::vector<DistributedVector<F> *> &batch,
                  size_t analytic_batch = 1) const;

    /** Shared implementation of the resilient transforms. */
    Result<SimReport> runResilient(NttDirection dir,
                                   DistributedVector<F> &data,
                                   FaultInjector &faults,
                                   const ResilienceConfig &rc,
                                   DeviceHealthTracker *health) const;

    /** runResilient minus the tracker's end-of-run bookkeeping. */
    Result<SimReport> runResilientImpl(NttDirection dir,
                                       DistributedVector<F> &data,
                                       FaultInjector &faults,
                                       const ResilienceConfig &rc,
                                       DeviceHealthTracker *health) const;

    /**
     * The host facts of one dispatch of @p sched: lanes, plan-cache
     * service, the fused groups, and, when @p exec ran it, the
     * twiddle-slab service (the flat table is only consulted on a slab
     * miss) and the bound kernel table with its dispatch count, which
     * also feeds the router's process counters.
     */
    HostExecStats
    hostStats(const StageSchedule &sched, bool plan_hit, bool slab_hit,
              bool tw_hit, const FunctionalStepExecutor<F> *exec) const
    {
        HostExecStats hx;
        hx.hostThreads = hostLanes();
        (plan_hit ? hx.planCacheHits : hx.planCacheMisses) = 1;
        for (const auto &st : sched.steps)
            if (st.kind == StepKind::FusedLocalPass)
                hx.fusedGroups++;
        if (exec != nullptr) {
            (slab_hit ? hx.twiddleSlabHits : hx.twiddleSlabMisses) = 1;
            if (!slab_hit)
                (tw_hit ? hx.twiddleCacheHits : hx.twiddleCacheMisses) = 1;
            hx.isaPath = exec->kernels().name;
            hx.isaLanes = exec->kernels().lanes;
            hx.isaDispatches = exec->kernelDispatches();
            recordKernelDispatch(exec->kernels().path,
                                 exec->kernelDispatches());
        }
        return hx;
    }

    MultiGpuSystem sys_;
    UniNttConfig cfg_;
    CostConstants costs_;
    PerfModel perf_;
    /**
     * Spot-check seed counter: each check mixes the configured base
     * with its next value (ResilientStepExecutor::spotCheckStep).
     * Atomic, so overlapping resilient runs on one engine each draw a
     * distinct value.
     */
    mutable std::atomic<uint64_t> spotCheckEpoch_{0};
    /** Lent to one resilient run at a time (ResilientScratch). */
    mutable std::mutex scratchMutex_;
    mutable ResilientScratch<F> scratch_;
};

// ---------------------------------------------------------------------
// Implementation.
// ---------------------------------------------------------------------

template <NttField F>
SimReport
UniNttEngine<F>::run(unsigned logN, NttDirection dir,
                     std::vector<DistributedVector<F> *> &batch,
                     size_t analytic_batch) const
{
    bool plan_hit = false;
    const NttPlan pl = cachedPlan<F>(logN, sys_, cfg_, &plan_hit);
    const uint64_t n = 1ULL << logN;
    const size_t nbatch = batch.empty() ? analytic_batch : batch.size();
    const bool functional = !batch.empty();

    for (auto *d : batch) {
        UNINTT_ASSERT(d->size() == n, "batch entry size mismatch");
        UNINTT_ASSERT(d->numGpus() == sys_.numGpus, "GPU count mismatch");
    }

    bool sched_hit = false;
    std::shared_ptr<const StageSchedule> sched = ScheduleCache::global().get(
        pl, sys_, dir, sizeof(F), cfg_, costs_, nbatch, &sched_hit);

    // Compacted twiddle slabs shared by the functional execution
    // (served from the per-field slab cache; a slab miss pulls the flat
    // table through the table cache, so repeated transforms skip the
    // root-of-unity regeneration). The simulated twiddle strategy
    // (table vs on-the-fly) only affects accounting.
    std::shared_ptr<const TwiddleSlabs<F>> slabs;
    bool slab_hit = false;
    bool tw_hit = false;
    if (functional)
        slabs = cachedTwiddleSlabs<F>(n, dir, &slab_hit, &tw_hit);

    SimReport report;
    report.setPeakDeviceBytes(sched->peakDeviceBytes);
    HostExecStats hx;
    if (functional) {
        FunctionalStepExecutor<F> exec(
            sys_, perf_, report, batch, *slabs, logN, dir, hostLanes(),
            kernels());
        Status st = dispatchSchedule(sched, exec);
        UNINTT_ASSERT(st.ok(), "functional execution cannot fail");
        hx = hostStats(*sched, plan_hit, slab_hit, tw_hit, &exec);
    } else {
        AnalyticStepExecutor exec(sys_, perf_, report);
        Status st = dispatchSchedule(sched, exec);
        UNINTT_ASSERT(st.ok(), "analytic execution cannot fail");
        hx = hostStats(*sched, plan_hit, slab_hit, tw_hit, nullptr);
    }
    (sched_hit ? hx.scheduleCacheHits : hx.scheduleCacheMisses) = 1;
    // Overlap counters come from the schedule itself: the waves of an
    // overlapped DAG, and (functional runs) its exchange chunk nodes.
    if (sched->overlapped) {
        hx.overlapWaves = sched->waves.size();
        if (functional)
            for (const ScheduleDagNode &nd : sched->dag)
                if (sched->steps[nd.step].kind == StepKind::Exchange)
                    hx.exchangeChunks++;
    }
    report.addHostExecStats(hx);
    return report;
}

template <NttField F>
Result<SimReport>
UniNttEngine<F>::runResilient(NttDirection dir, DistributedVector<F> &data,
                              FaultInjector &faults,
                              const ResilienceConfig &rc,
                              DeviceHealthTracker *health) const
{
    Result<SimReport> r = runResilientImpl(dir, data, faults, rc, health);
    if (health != nullptr)
        health->endRun(); // the run clock ticks on every exit path
    return r;
}

template <NttField F>
Result<SimReport>
UniNttEngine<F>::runResilientImpl(NttDirection dir,
                                  DistributedVector<F> &data,
                                  FaultInjector &faults,
                                  const ResilienceConfig &rc,
                                  DeviceHealthTracker *health) const
{
    if (data.numGpus() != sys_.numGpus)
        return Status::error(
            StatusCode::InvalidArgument,
            "data is sharded over " + std::to_string(data.numGpus()) +
                " GPUs but the machine has " +
                std::to_string(sys_.numGpus));
    if (data.size() == 0 || !isPow2(data.size()))
        return Status::error(
            StatusCode::InvalidArgument,
            "transform size " + std::to_string(data.size()) +
                " is not a power of two");

    const unsigned logN = log2Exact(data.size());
    const uint64_t n = 1ULL << logN;

    // Host buffers lent by the engine; an overlapping run on this
    // engine allocates its own.
    std::unique_lock<std::mutex> lent(scratchMutex_, std::try_to_lock);
    ResilientScratch<F> own;
    ResilientScratch<F> &scratch = lent.owns_lock() ? scratch_ : own;

    // Input snapshot for the post-transform spot check, taken only when
    // the schedule carries one (spotChecks > 0).
    std::vector<F> &input = scratch.input;
    if (rc.spotChecks > 0)
        data.toGlobal(input);
    else
        input.clear();
    bool slab_hit = false;
    bool tw_hit = false;
    const auto slabs_ptr = cachedTwiddleSlabs<F>(n, dir, &slab_hit, &tw_hit);
    const TwiddleSlabs<F> &slabs = *slabs_ptr;

    SimReport report;
    FaultStats fs;
    MultiGpuSystem sys = sys_; // shrinks when devices drop out

    // Consult the health tracker before planning: quarantined devices
    // never enter the plan. The data is resharded onto the largest
    // healthy power-of-two subset, priced as one all-to-all.
    if (health != nullptr) {
        UNINTT_ASSERT(health->numDevices() == sys_.numGpus,
                      "health tracker sized for a different machine");
        const unsigned usable =
            std::min(health->usablePowerOfTwo(), sys.numGpus);
        if (usable == 0)
            return Status::error(
                StatusCode::DeviceLost,
                "every device is quarantined; no plan is possible");
        if (usable < sys.numGpus) {
            Status st = data.reshardChecked(usable);
            if (!st.ok())
                return st;
            const uint64_t reshard_bytes = (n / usable) * sizeof(F);
            CommStats comm;
            comm.bytesPerGpu = reshard_bytes;
            comm.messages = usable;
            report.addCommPhase(
                "health-exclude-to-" + std::to_string(usable) +
                    "gpu-reshard",
                sys.fabric.allToAllTime(reshard_bytes, usable), comm);
            fs.devicesExcluded += sys.numGpus - usable;
            sys.numGpus = usable;
            if (sys.gpusPerNode != 0 && sys.numGpus <= sys.gpusPerNode)
                sys.gpusPerNode = 0; // survivors fit inside one node
        }
    }

    bool plan_hit = false;
    const NttPlan pl = cachedPlan<F>(logN, sys, cfg_, &plan_hit);
    std::vector<DistributedVector<F> *> batch{&data};
    ResilientStepExecutor<F> exec(sys, perf_, cfg_, costs_, report, batch,
                                  input, faults, rc, health, slabs, pl,
                                  dir, hostLanes(), spotCheckEpoch_, fs,
                                  scratch, kernels());
    const auto sched = exec.firstSchedule();
    Status st = dispatchSchedule(sched, exec);
    if (!st.ok())
        return st;
    report.addHostExecStats(
        hostStats(*sched, plan_hit, slab_hit, tw_hit, &exec));
    report.addFaultStats(fs);
    return report;
}

} // namespace unintt

#endif // UNINTT_UNINTT_ENGINE_HH
