/**
 * @file
 * Step executors: the interpreters of the stage-schedule IR
 * (schedule.hh).
 *
 * The executor contract: an executor consumes a schedule's DAG waves
 * in order via onWave() and appends the phases of every step whose
 * last node ran to a SimReport. It may return a non-ok Status
 * (aborting the run) or request a reschedule (the dispatch loop swaps
 * in the executor's recompiled schedule and restarts from its first
 * wave — how mid-run degradation re-plans the remaining stages).
 *
 *  - AnalyticStepExecutor prices each wave's precomputed counters
 *    without touching data (analyticRun).
 *  - FunctionalStepExecutor additionally executes the bit-exact field
 *    arithmetic on the host pool, then defers to the analytic pricing
 *    — the timeline is identical by construction.
 *  - ResilientStepExecutor derives from the functional one and adds
 *    the fault machinery of a single transform around the inherited
 *    node work and wave pricing: checksummed exchanges,
 *    bounded-backoff retries, the straggler watchdog, ABFT checks,
 *    degraded-mode re-plans, and the post-transform spot check.
 *
 * There is one node loop per wave and one overlap rule (priceWave):
 * every executor prices a schedule the same way.
 *
 * Phase-order note: the IR lists an Exchange before the CrossStage
 * that consumes it (dataflow order), while the report historically
 * shows compute first and the exchange second. priceWave therefore
 * accumulates the exchange's visible/hidden split wave by wave and
 * emits its comm phase right after the paired CrossStage's kernel
 * phase.
 */

#ifndef UNINTT_UNINTT_EXECUTORS_HH
#define UNINTT_UNINTT_EXECUTORS_HH

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "field/dispatch.hh"
#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "ntt/twiddle.hh"
#include "ntt/twiddle_cache.hh"
#include "sim/fault.hh"
#include "sim/multi_gpu.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"
#include "unintt/abft.hh"
#include "unintt/cache.hh"
#include "unintt/compute.hh"
#include "unintt/config.hh"
#include "unintt/distributed.hh"
#include "unintt/health.hh"
#include "unintt/schedule.hh"
#include "unintt/verify.hh"
#include "util/bitops.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

namespace unintt {

/** Outcome of executing one wave (or one node of it). */
struct StepAction
{
    Status status;
    /**
     * When true, the dispatch loop replaces the schedule with the
     * executor's recompiled one and restarts at its first wave.
     */
    bool reschedule = false;
};

/**
 * Run @p sched through @p exec. The single interpreter loop shared by
 * run(), analyticRun() and runResilient().
 *
 * Every schedule carries its DAG (schedule.hh) and dispatches wave by
 * wave: every node of a wave is ready (all dependencies ran in earlier
 * waves). A linear schedule is one node per step in its own wave; an
 * overlapped one shares a wave between the exchange of chunk k+1 and
 * the butterflies of chunk k. A reschedule swaps in the executor's
 * recompiled schedule and restarts it at its first wave.
 */
template <typename Exec>
Status
dispatchSchedule(std::shared_ptr<const StageSchedule> sched, Exec &exec)
{
    size_t w = 0;
    while (w < sched->waves.size()) {
        StepAction act = exec.onWave(*sched, w);
        if (!act.status.ok())
            return act.status;
        if (act.reschedule) {
            sched = exec.reschedule();
            UNINTT_ASSERT(sched != nullptr, "reschedule returned nothing");
            w = 0;
        } else {
            ++w;
        }
    }
    return Status();
}

// ---------------------------------------------------------------------
// Analytic executor: price the precomputed counters, touch no data.
// ---------------------------------------------------------------------

class AnalyticStepExecutor
{
  public:
    AnalyticStepExecutor(const MultiGpuSystem &sys, const PerfModel &perf,
                         SimReport &report)
        : sys_(sys), perf_(perf), report_(report)
    {
    }

    /** Price every node of wave @p w. */
    StepAction
    onWave(const StageSchedule &sched, size_t w)
    {
        priceWave(sched, sched.waves[w]);
        return StepAction{};
    }

    /** Plain executors never request a reschedule. */
    std::shared_ptr<const StageSchedule>
    reschedule()
    {
        panic("plain executors cannot reschedule");
    }

  protected:
    /**
     * Reset the per-schedule DAG accounting on a schedule swap. Every
     * exchange slot starts at the step's fault-free price: its
     * pairwise exchange time and its compiled CommStats.
     */
    void
    initDagState(const StageSchedule &sched)
    {
        if (dagSched_ == &sched)
            return;
        dagSched_ = &sched;
        remaining_.assign(sched.steps.size(), 0);
        for (const ScheduleDagNode &nd : sched.dag)
            remaining_[nd.step]++;
        exVisible_.assign(sched.steps.size(), 0.0);
        exHidden_.assign(sched.steps.size(), 0.0);
        exSeconds_.assign(sched.steps.size(), 0.0);
        exComm_.assign(sched.steps.size(), CommStats{});
        for (size_t i = 0; i < sched.steps.size(); ++i) {
            const ScheduleStep &st = sched.steps[i];
            if (st.kind != StepKind::Exchange)
                continue;
            const Interconnect &fabric =
                st.crossesNodes ? sys_.nodeFabric : sys_.fabric;
            exSeconds_[i] = fabric.pairwiseExchangeTime(
                st.comm.bytesPerGpu, st.effectiveDistance);
            exComm_[i] = st.comm;
        }
    }

    /**
     * Price the DAG nodes @p wave — one wave of the schedule, or the
     * part of one that ran. The wave's makespan is max(comm, compute):
     * only the excess of the wave's exchange time over its butterfly
     * time is visible, and that visible/hidden split is attributed
     * back to each exchange step proportionally to its nodes' share of
     * the wave's comm. An exchange node costs its slice's share of the
     * step's exchange slot. A lone exchange node (a linear schedule's
     * wave) has no compute beside it, so its whole time is visible.
     * Phases materialize once per *step* — same names, same order,
     * same CommStats in both dispatch modes — when the step's last
     * node completes, so reports keep their historical shape and total
     * fabric bytes/messages are untouched; only the makespan of an
     * overlapped schedule shrinks.
     */
    void
    priceWave(const StageSchedule &sched, const std::vector<uint32_t> &wave)
    {
        initDagState(sched);
        double comp_w = 0.0;
        double comm_w = 0.0;
        std::vector<std::pair<uint32_t, double>> comm_nodes;
        std::vector<uint32_t> completed;
        const double chunk_elems =
            static_cast<double>(sched.plan.chunkElems());
        for (uint32_t ni : wave) {
            const ScheduleDagNode &nd = sched.dag[ni];
            const ScheduleStep &st = sched.steps[nd.step];
            const double frac =
                static_cast<double>(nd.sliceEnd - nd.sliceBegin) /
                chunk_elems;
            if (st.kind == StepKind::Exchange) {
                const double t = exSeconds_[nd.step] * frac;
                comm_w += t;
                comm_nodes.emplace_back(nd.step, t);
            } else {
                comp_w += perf_.kernelSeconds(st.stats) * frac;
            }
            UNINTT_ASSERT(remaining_[nd.step] > 0,
                          "DAG node executed twice");
            if (--remaining_[nd.step] == 0)
                completed.push_back(nd.step);
        }
        const double visible_w = std::max(0.0, comm_w - comp_w);
        const double hidden_w = comm_w - visible_w;
        for (const auto &[sidx, t] : comm_nodes) {
            const double share = comm_w > 0.0 ? t / comm_w : 0.0;
            exVisible_[sidx] += visible_w * share;
            exHidden_[sidx] += hidden_w * share;
        }
        std::sort(completed.begin(), completed.end());
        for (uint32_t sidx : completed)
            emitCompleted(sched, sidx);
    }

    /** Emit the phases of a step whose last DAG node just ran. */
    void
    emitCompleted(const StageSchedule &sched, uint32_t sidx)
    {
        const ScheduleStep &st = sched.steps[sidx];
        switch (st.kind) {
          case StepKind::Exchange:
            // Deferred: its comm phase rides behind the paired
            // CrossStage, preserving the report's historical order.
            return;
          case StepKind::CrossStage: {
            report_.addKernelPhase(st.name, st.stats, perf_);
            tagPhase(st);
            UNINTT_ASSERT(sidx > 0 && sched.steps[sidx - 1].kind ==
                                          StepKind::Exchange,
                          "cross stage without a preceding exchange");
            const ScheduleStep &ex = sched.steps[sidx - 1];
            report_.addCommPhase(ex.name, exVisible_[sidx - 1],
                                 exComm_[sidx - 1], exHidden_[sidx - 1]);
            tagPhase(ex);
            return;
          }
          case StepKind::LocalPass:
          case StepKind::FusedLocalPass:
          case StepKind::Scale:
          case StepKind::SpotCheck:
            report_.addKernelPhase(st.name, st.stats, perf_);
            tagPhase(st);
            return;
        }
    }

    /** Attribute the just-added phase to its IR step. */
    void
    tagPhase(const ScheduleStep &st)
    {
        report_.tagLastPhase(toString(st.kind), toString(st.level));
    }

    const MultiGpuSystem &sys_;
    const PerfModel &perf_;
    SimReport &report_;

    /** DAG accounting, reset per schedule (initDagState). */
    const StageSchedule *dagSched_ = nullptr;
    std::vector<uint32_t> remaining_;
    std::vector<double> exVisible_;
    std::vector<double> exHidden_;
    /**
     * Per-step exchange slots: the seconds and CommStats a step's
     * exchange costs. The resilient executor overwrites a step's slot
     * with its resolved outcome before the wave is priced.
     */
    std::vector<double> exSeconds_;
    std::vector<CommStats> exComm_;
};

// ---------------------------------------------------------------------
// Functional executor: bit-exact host execution + analytic pricing.
// ---------------------------------------------------------------------

template <NttField F>
class FunctionalStepExecutor : public AnalyticStepExecutor
{
  public:
    FunctionalStepExecutor(const MultiGpuSystem &sys, const PerfModel &perf,
                           SimReport &report,
                           std::vector<DistributedVector<F> *> &batch,
                           const TwiddleSlabs<F> &slabs, unsigned logN,
                           NttDirection dir, unsigned lanes,
                           const FieldKernels<F> &fk = fieldKernels<F>())
        : AnalyticStepExecutor(sys, perf, report),
          batch_(batch),
          slabs_(slabs),
          logN_(logN),
          dir_(dir),
          lanes_(lanes),
          fk_(fk)
    {
    }

    /**
     * Run the butterflies of every node of wave @p w, then defer to the
     * shared analytic wave pricing so the functional timeline stays
     * identical to analyticRun by construction. Exchange nodes move no
     * host data: a cross-stage node reads its partner chunk in place,
     * and the DAG's chunk-aligned edges guarantee that every slice it
     * reads was finished by its dependencies.
     */
    StepAction
    onWave(const StageSchedule &sched, size_t w)
    {
        for (uint32_t ni : sched.waves[w])
            computeNode(sched.steps[sched.dag[ni].step], sched.dag[ni]);
        priceWave(sched, sched.waves[w]);
        return StepAction{};
    }

    /** Span-kernel dispatches through the bound table (router stats). */
    uint64_t kernelDispatches() const { return kernelDispatches_; }

    /** The kernel table this executor runs on. */
    const FieldKernels<F> &kernels() const { return fk_; }

  protected:
    /** The functional work of one DAG node. */
    void
    computeNode(const ScheduleStep &st, const ScheduleDagNode &nd)
    {
        const F scale = stepScale<F>(st, logN_);
        switch (st.kind) {
          case StepKind::CrossStage:
            for (auto *d : batch_)
                crossStageCompute(*d, st.sBegin, logN_, slabs_, dir_,
                                  lanes_, nd.sliceBegin, nd.sliceEnd, fk_);
            kernelDispatches_++;
            break;
          case StepKind::LocalPass:
            for (auto *d : batch_)
                localStagesCompute(*d, st.sBegin, st.sEnd, logN_, slabs_,
                                   dir_, lanes_, fk_, scale);
            kernelDispatches_++;
            break;
          case StepKind::FusedLocalPass:
            for (auto *d : batch_)
                fusedLocalStagesCompute(*d, st.sBegin, st.sEnd, logN_,
                                        slabs_, dir_, lanes_, fk_, scale);
            kernelDispatches_++;
            break;
          case StepKind::Scale:
            // Explicit twiddle passes are host no-ops: the butterflies
            // already apply every factor, n^-1 included.
          case StepKind::Exchange:
          case StepKind::SpotCheck:
            break;
        }
    }

    std::vector<DistributedVector<F> *> &batch_;
    const TwiddleSlabs<F> &slabs_;
    const unsigned logN_;
    const NttDirection dir_;
    const unsigned lanes_;
    const FieldKernels<F> &fk_;
    uint64_t kernelDispatches_ = 0;
};

// ---------------------------------------------------------------------
// Resilient executor: the functional one plus the fault machinery.
// ---------------------------------------------------------------------

/**
 * The plan of a 2^@p logN transform of F on @p sys, served by the
 * shared PlanCache under @p cfg's tile override: the one plan lookup
 * of the engine and of the resilient executor's replans. @p hit_out
 * (optional) reports whether the cache served it.
 */
template <NttField F>
NttPlan
cachedPlan(unsigned logN, const MultiGpuSystem &sys,
           const UniNttConfig &cfg, bool *hit_out = nullptr)
{
    requireTwoAdicSize<F>(logN);
    return PlanCache::global().get(logN, sys, sizeof(F),
                                   cfg.forceLogBlockTile, hit_out);
}

/**
 * The host buffers a resilient run writes before it reads them: the
 * spot-check input snapshot and the ABFT recovery snapshot. The engine
 * lends one set to run after run, so back-to-back transforms reuse
 * them instead of allocating ~2x the data per call (whose page-fault
 * cost then swings with the state of the allocator's heap).
 */
template <NttField F>
struct ResilientScratch
{
    std::vector<F> input;
    std::vector<std::vector<F>> abftSnap;
};

/**
 * The functional executor decorated with the fault machinery of one
 * transform. Every node runs through the inherited computeNode and
 * every wave is priced by the inherited priceWave, so a fault-free run
 * reports what the analytic executor prices for the same schedule.
 * Around them it adds only:
 *  - exchange resolution ahead of the wave's nodes: the injector draw,
 *    straggler watchdog, bounded-backoff retries and the checksum /
 *    retransmission loop, whose outcome lands in the step's exchange
 *    slot;
 *  - the ABFT arm before a compute step's first node and the guard
 *    after its last;
 *  - the spot check, as the work of the SpotCheck node;
 *  - degraded mode: a device loss (or a spent ABFT budget) reshards the
 *    data onto the surviving power-of-two subset and asks the dispatch
 *    loop to continue on a resume schedule.
 */
template <NttField F>
class ResilientStepExecutor : public FunctionalStepExecutor<F>
{
    using Base = FunctionalStepExecutor<F>;

  public:
    /**
     * @p sys is the run's machine, shrunk in place when devices drop
     * out; @p batch holds the one transform; @p spot_epoch is the
     * engine's spot-check counter.
     */
    ResilientStepExecutor(MultiGpuSystem &sys, const PerfModel &perf,
                          const UniNttConfig &cfg,
                          const CostConstants &costs, SimReport &report,
                          std::vector<DistributedVector<F> *> &batch,
                          const std::vector<F> &input,
                          FaultInjector &faults,
                          const ResilienceConfig &rc,
                          DeviceHealthTracker *health,
                          const TwiddleSlabs<F> &slabs, NttPlan pl,
                          NttDirection dir, unsigned lanes,
                          std::atomic<uint64_t> &spot_epoch, FaultStats &fs,
                          ResilientScratch<F> &scratch,
                          const FieldKernels<F> &fk)
        : Base(sys, perf, report, batch, slabs, pl.logN, dir, lanes, fk),
          machine_(sys),
          cfg_(cfg),
          costs_(costs),
          input_(input),
          faults_(faults),
          rc_(rc),
          health_(health),
          pl_(std::move(pl)),
          logMg0_(pl_.logMg),
          spotEpoch_(spot_epoch),
          fs_(fs),
          abftSnap_(scratch.abftSnap)
    {
        UNINTT_ASSERT(batch.size() == 1, "resilient runs are single");
    }

    /**
     * Resolve the wave's exchanges, run its nodes, price it. Exchanges
     * resolve first: on an overlapped schedule the *next* stage's
     * buffer is on the link while the *previous* stage's butterflies
     * are still in flight, which is exactly the mid-overlap window a
     * device loss must be able to land in. One fault draw per exchange
     * step, at its chunk-0 node, keeps the injector sequence identical
     * in both dispatch modes. A wave cut short by an ABFT escalation
     * or a failure is not priced.
     */
    StepAction
    onWave(const StageSchedule &sched, size_t w)
    {
        this->initDagState(sched);
        const std::vector<uint32_t> &wave = sched.waves[w];
        for (uint32_t ni : wave) {
            const ScheduleDagNode &nd = sched.dag[ni];
            const ScheduleStep &st = sched.steps[nd.step];
            if (st.kind != StepKind::Exchange || nd.chunk != 0)
                continue;
            int lost_gpu = -1;
            Status s = resolveExchange(st, nd.step, lost_gpu);
            if (!s.ok())
                return StepAction{s, false};
            if (lost_gpu >= 0)
                return loseDevice(sched, w, nd.step, lost_gpu);
        }
        for (uint32_t ni : wave) {
            const ScheduleDagNode &nd = sched.dag[ni];
            StepAction act = runNode(sched.steps[nd.step], nd);
            if (!act.status.ok() || act.reschedule)
                return act;
        }
        this->priceWave(sched, wave);
        return StepAction{};
    }

    /** Compile and bind the run's schedule; the engine dispatches it. */
    std::shared_ptr<const StageSchedule>
    firstSchedule()
    {
        return compile(false);
    }

    /** Recompile the remaining stages for the degraded machine. */
    std::shared_ptr<const StageSchedule>
    reschedule()
    {
        return compile(true);
    }

  private:
    using Base::dir_;
    using Base::fk_;
    using Base::lanes_;
    using Base::report_;
    using Base::slabs_;

    /**
     * Compile a resilient schedule for the current plan and machine —
     * checksummed exchanges, the spot check and the ABFT annotation of
     * the run's ResilienceConfig; after a degradation (@p resume) only
     * the stages from resumeStage_ on, for a transform first planned
     * over 2^logMg0_ GPUs — and bind it. Compiled fresh, never cached:
     * a shared cache would hand the resume schedule to other runs.
     * Binding fetches fresh coefficient vectors lazily at the first
     * checked step (ABFT-off runs never touch the cache) and restarts
     * the first-boundary init; the injection ordinal keeps counting,
     * so replayed steps never repeat an earlier fault draw.
     */
    std::shared_ptr<const StageSchedule>
    compile(bool resume)
    {
        ScheduleOptions o;
        o.resilient = true;
        o.spotChecks = rc_.spotChecks;
        o.abft = rc_.abft;
        if (resume) {
            o.resume = true;
            o.resumeStage = resumeStage_;
            o.origLogMg = logMg0_;
        }
        auto sched = std::make_shared<const StageSchedule>(compileSchedule(
            pl_, machine_, dir_, sizeof(F), cfg_, costs_, o));
        report_.setPeakDeviceBytes(sched->peakDeviceBytes);
        abftSched_ = sched;
        abftCoef_.reset();
        abftBoundary_ = 0;
        abftInited_ = false;
        return sched;
    }

    /**
     * The fault machinery of exchange step @p sidx: the injector draw,
     * straggler watchdog, bounded-backoff transient retries, and the
     * checksum/retransmission loop. The step's exchange slot holds its
     * fault-free price until the outcome overwrites it. Sets
     * @p lost_gpu when a device died instead.
     */
    Status
    resolveExchange(const ScheduleStep &st, uint32_t sidx, int &lost_gpu)
    {
        const unsigned s = st.sBegin;
        ExchangeOutcome out = faults_.nextExchange(rc_.retry.maxRetries);
        fs_.exchanges++;
        if (out.lostGpu >= 0) {
            lost_gpu = out.lostGpu;
            return Status();
        }
        if (out.exhausted)
            return Status::error(
                StatusCode::TransientFault,
                detail::format("cross-GPU exchange at stage %u "
                               "still failing after %u retries",
                               s, rc_.retry.maxRetries));

        const uint64_t bytes = pl_.chunkElems() * sizeof(F);
        // The step's counters already include the checksum generation
        // and verification adds (compiled with resilient=true).
        fs_.checksummedBytes += 2 * bytes;

        const unsigned distance = st.distance;
        const double once = this->exSeconds_[sidx];
        CommStats &comm = this->exComm_[sidx];
        // Faults at this stage are attributed to gpu 0's exchange
        // partner — the same device whose chunk demonstrates the
        // corruption below. An approximation (every pair faults
        // identically in the simulation), but a deterministic one,
        // so the health tracker sees a reproducible history.
        const unsigned suspect = distance;
        double comm_t = once * out.stragglerFactor;
        if (out.stragglerFactor > 1.0) {
            fs_.stragglerEvents++;
            if (health_ != nullptr && suspect < health_->numDevices())
                health_->recordFault(suspect);
            if (rc_.watchdogDeadlineFactor > 0.0 &&
                out.stragglerFactor > rc_.watchdogDeadlineFactor) {
                // Watchdog: the exchange is aborted at the deadline
                // and retried once on a clean link, bounding an
                // arbitrarily slow straggler at deadline + one
                // retransmission.
                comm_t = once * rc_.watchdogDeadlineFactor + once;
                comm.retries += 1;
                fs_.watchdogTimeouts++;
            }
        }
        for (unsigned i = 0; i < out.transientFailures; ++i)
            comm_t += rc_.retry.backoffSeconds(i) + once;
        comm.retries += out.transientFailures;
        fs_.transientRetries += out.transientFailures;
        if (health_ != nullptr && out.transientFailures > 0 &&
            suspect < health_->numDevices())
            health_->recordFault(suspect);

        // Corrupted payload: the checksum catches the flip (shown
        // functionally on the first exchanging pair), forcing
        // retransmissions until a clean copy lands.
        bool corrupted = out.corrupted;
        unsigned tries = 0;
        while (corrupted) {
            const std::vector<F> &payload = data().chunk(distance);
            auto checksum = [&](const std::vector<F> &v) {
                return checksumShardsPooled<F>(std::span(&v, 1), lanes_,
                                               fk_);
            };
            const uint64_t good = checksum(payload);
            std::vector<F> received = payload;
            auto *raw =
                reinterpret_cast<unsigned char *>(received.data());
            const uint64_t bit = out.corruptBit % (bytes * 8);
            raw[bit / 8] ^=
                static_cast<unsigned char>(1u << (bit % 8));
            const uint64_t seen = checksum(received);
            UNINTT_ASSERT(
                seen != good,
                "single-bit corruption must change the checksum");
            fs_.corruptionsDetected++;
            if (health_ != nullptr && suspect < health_->numDevices())
                health_->recordFault(suspect);
            comm_t += once;
            comm.retries += 1;
            if (++tries > rc_.retry.maxRetries)
                return Status::error(
                    StatusCode::DataCorruption,
                    detail::format(
                        "payload checksum mismatch at stage %u "
                        "persisted across %u retransmissions",
                        s, rc_.retry.maxRetries));
            corrupted = faults_.retransmitCorrupted();
        }
        this->exSeconds_[sidx] = comm_t;
        return Status();
    }

    /**
     * One node's work: the spot check for a SpotCheck node, else the
     * inherited kernels, with the ABFT arm before a compute step's
     * first node and the guard after its last. A split step's chunk k
     * depends on its chunk k-1, so chunk 0 sees the data exactly at
     * the step boundary and the last chunk completes the step; the
     * next step's nodes read the data in place after the guard, so an
     * injected flip (or its recovery) reaches them exactly as it would
     * in the linear dispatch.
     */
    StepAction
    runNode(const ScheduleStep &st, const ScheduleDagNode &nd)
    {
        if (st.kind == StepKind::SpotCheck)
            return spotCheckStep();
        const bool compute = st.kind == StepKind::CrossStage ||
                             st.kind == StepKind::LocalPass ||
                             st.kind == StepKind::FusedLocalPass ||
                             st.kind == StepKind::Scale;
        if (compute && nd.chunk == 0)
            abftArmStep(st);
        this->computeNode(st, nd);
        if (compute && nd.chunk + 1 == nd.chunkCount)
            return abftGuardStep(st);
        return StepAction{};
    }

    /**
     * A device died at the exchange of step @p sidx, resolved in wave
     * @p w before any compute node of the wave ran. First drain the nodes
     * of earlier steps still pending — the butterfly chunks in flight
     * on the surviving devices when the loss lands mid-overlap — wave
     * by wave, pricing only the nodes that ran. Every earlier exchange
     * resolved in an earlier wave, so no nested fault draw can occur.
     * Then degrade and reschedule from the stage that was lost.
     */
    StepAction
    loseDevice(const StageSchedule &sched, size_t w, uint32_t sidx,
               int lost_gpu)
    {
        for (size_t v = w; v < sched.waves.size(); ++v) {
            std::vector<uint32_t> ran;
            for (uint32_t ni : sched.waves[v]) {
                const ScheduleDagNode &nd = sched.dag[ni];
                if (nd.step >= sidx)
                    continue;
                const ScheduleStep &st = sched.steps[nd.step];
                UNINTT_ASSERT(st.kind != StepKind::Exchange,
                              "exchange of an earlier stage still "
                              "unresolved");
                StepAction act = runNode(st, nd);
                if (!act.status.ok() || act.reschedule)
                    return act;
                ran.push_back(ni);
            }
            this->priceWave(sched, ran);
        }
        Status dst = degrade(lost_gpu, sched.steps[sidx].sBegin);
        if (!dst.ok())
            return StepAction{dst, false};
        return StepAction{Status(), /*reschedule=*/true};
    }

    /**
     * Permanent device loss: re-shard the data onto the surviving
     * power-of-two subset, re-plan, and price the recovery — the
     * detection timeout, pulling the lost chunk's replica from its
     * last exchange partner, and the all-to-all reshard. The caller
     * then requests a reschedule from stage @p s.
     */
    Status
    degrade(int lost_gpu, unsigned s)
    {
        // The loss is attributed whether or not the recovery below is
        // allowed to absorb it — the next run must know either way.
        if (health_ != nullptr && lost_gpu >= 0 &&
            static_cast<unsigned>(lost_gpu) < health_->numDevices())
            health_->recordDeviceLost(static_cast<unsigned>(lost_gpu));
        if (!rc_.allowDegraded)
            return Status::error(
                StatusCode::DeviceLost,
                detail::format(
                    "GPU %d lost and degraded mode is disabled",
                    lost_gpu));
        if (machine_.numGpus <= 1)
            return Status::error(
                StatusCode::DeviceLost,
                "GPU lost with no surviving devices to re-plan onto");
        const uint64_t n = 1ULL << pl_.logN;
        const unsigned newG = machine_.numGpus / 2;
        const uint64_t lost_chunk_bytes = pl_.chunkElems() * sizeof(F);
        const uint64_t reshard_bytes = (n / newG) * sizeof(F);
        double t = rc_.detectionSeconds;
        t += machine_.fabric.pairwiseExchangeTime(lost_chunk_bytes, 1);
        t += machine_.fabric.allToAllTime(reshard_bytes, newG);
        CommStats comm;
        comm.bytesPerGpu = reshard_bytes + lost_chunk_bytes;
        comm.messages = newG;
        report_.addCommPhase(
            "degrade-to-" + std::to_string(newG) + "gpu-reshard", t,
            comm);
        Status reshard_st = data().reshardChecked(newG);
        if (!reshard_st.ok())
            return reshard_st;
        machine_.numGpus = newG;
        if (machine_.gpusPerNode != 0 &&
            machine_.numGpus <= machine_.gpusPerNode)
            machine_.gpusPerNode = 0; // survivors fit inside one node
        pl_ = cachedPlan<F>(pl_.logN, machine_, cfg_);
        fs_.devicesLost++;
        fs_.degradedReplans++;
        resumeStage_ = s;
        return Status();
    }

    /**
     * Post-transform spot check against a direct evaluation
     * (unintt/verify.hh): the backstop that catches whatever the
     * exchange checksums cannot see. It reads the shards in place: the
     * forward check finds output position bitReverse(k) as a (chunk,
     * offset) pair, the inverse check evaluates chunk g's coefficients
     * as x^(g*C) * P_g(x).
     */
    StepAction
    spotCheckStep()
    {
        fs_.spotChecks += rc_.spotChecks;
        // Derived seed: the configured base mixed with the engine's
        // check counter, so repeated checks of the same transform
        // sample fresh positions (the config seed alone would re-sample
        // the same ones every run) while a given engine's sequence
        // stays deterministic. Drawn only when the check actually
        // executes, so earlier-failing runs do not advance it.
        const uint64_t spot_seed =
            mix64(rc_.spotCheckSeed ^ mix64(spotEpoch_.fetch_add(1) + 1));
        SpanList<F> shards;
        for (unsigned g = 0; g < data().numGpus(); ++g)
            shards.emplace_back(data().chunk(g));
        const SpanList<F> input{input_};
        const bool forward = dir_ == NttDirection::Forward;
        const bool good =
            spotCheck(forward ? input : shards, forward ? shards : input,
                      F::one(), rc_.spotChecks, spot_seed, fk_, lanes_);
        if (!good) {
            fs_.spotCheckFailures++;
            return StepAction{
                Status::error(
                    StatusCode::DataCorruption,
                    "post-transform spot check failed: output does not "
                    "match a direct evaluation of the input"),
                false};
        }
        return StepAction{};
    }

    // -----------------------------------------------------------------
    // ABFT compute-path integrity (unintt/abft.hh): deterministic
    // fault injection into kernel outputs, RLC checksum comparison
    // after every compute step, tile-granular recomputation on a
    // mismatch, and the degrade/fail escalation ladder.
    // -----------------------------------------------------------------

    /** True iff the ABFT comparison runs after checked steps. */
    bool
    abftCheckOn(const ScheduleStep &st) const
    {
        return rc_.abft && abftChecked(st) && abftSched_ != nullptr;
    }

    /** True iff compute-fault injection is live for this run. */
    bool
    abftInjectOn() const
    {
        return faults_.model().computeBitFlipRate > 0.0;
    }

    /**
     * Arm the ABFT machinery before a checked step's kernel runs:
     * fetch the coefficient vectors (lazily, via the process cache),
     * seed the first boundary's checksums from the current data, and —
     * only when injection is live, so clean runs pay nothing beyond
     * the comparison — snapshot the shards as the recovery restore
     * source.
     */
    void
    abftArmStep(const ScheduleStep &st)
    {
        if (!abftCheckOn(st))
            return;
        if (!abftCoef_) {
            // Derived like the spot-check seeds (mix64 over the
            // configured base, util/checksum.hh) but *not* advanced
            // per transform: the vectors depend only on the schedule
            // shape, which is what makes them cacheable.
            const uint64_t seed =
                mix64(rc_.spotCheckSeed ^ 0xabf7c0effec0ffeeULL);
            abftCoef_ = cachedAbftCoefficients<F>(*abftSched_, slabs_,
                                                  seed, lanes_);
        }
        if (!abftInited_) {
            abftPrev_ = abftChunkChecksums(abftCoef_->boundary(0),
                                           data(), lanes_);
            abftInited_ = true;
        }
        if (abftInjectOn()) {
            const unsigned G = data().numGpus();
            abftSnap_.resize(G);
            for (auto &snap : abftSnap_) // on this thread, as fromGlobal
                snap.reserve(data().chunkSize());
            hostParallelFor(G, data().chunkSize(), lanes_,
                            [&](size_t g) {
                                abftSnap_[g] = data().chunk(
                                    static_cast<unsigned>(g));
                            });
        }
    }

    /**
     * The compute-integrity decorator of one finished compute step:
     * one deterministic fault draw against the step's output, then the
     * ABFT comparison with tile recovery. Runs between the kernel and
     * its phase emission in both dispatch modes; the step ordinal
     * advances identically in both, so the draw sequences (and
     * therefore the injected faults) cannot drift between them, and it
     * is never reset on a reschedule, so resumed steps draw fresh.
     */
    StepAction
    abftGuardStep(const ScheduleStep &st)
    {
        const bool inject = abftInjectOn();
        const bool check = abftCheckOn(st);
        if (!inject && !check)
            return StepAction{};
        const uint64_t ord = stepOrdinal_++;
        if (inject) {
            const unsigned g_t =
                static_cast<unsigned>(ord % data().numGpus());
            ComputeFaultOutcome out =
                faults_.computeFault(g_t, ord, 0);
            if (out.corrupted)
                abftCorrupt(g_t, 0, data().chunkSize(), out);
        }
        if (!check)
            return StepAction{}; // ABFT off: corruption flows silently
        return abftVerifyStep(st, ord);
    }

    /** Flip one bit of one word of shard @p g inside [w0, w0+len). */
    void
    abftCorrupt(unsigned g, uint64_t w0, uint64_t len,
                const ComputeFaultOutcome &out)
    {
        auto &chunk = data().chunk(g);
        const uint64_t word = w0 + out.corruptWord % len;
        auto *raw = reinterpret_cast<unsigned char *>(chunk.data() +
                                                      word);
        const uint64_t bit = out.corruptBit % (8 * sizeof(F));
        raw[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }

    /**
     * Post-step ABFT comparison and bounded tile-granular recovery.
     * Chunk-local steps must preserve every shard's checksum; a cross
     * stage mixes exactly its exchanging pair, preserving the pairwise
     * sum. Each recovery round counts one catch, restores and
     * recomputes only the corrupted tiles, and re-draws the injector
     * for the redone slice (attempt > 0); when the budget is spent the
     * step escalates.
     */
    StepAction
    abftVerifyStep(const ScheduleStep &st, uint64_t ord)
    {
        const unsigned G = data().numGpus();
        const uint64_t C = data().chunkSize();
        const DistributedVector<F> &prev_coef =
            abftCoef_->boundary(abftBoundary_);
        const DistributedVector<F> &cur_coef =
            abftCoef_->boundary(abftBoundary_ + 1);
        const bool cross = st.kind == StepKind::CrossStage;
        const unsigned gap = st.distance;

        unsigned attempt = 0;
        for (;;) {
            std::vector<F> actual =
                abftChunkChecksums(cur_coef, data(), lanes_);
            fs_.abftChecks++;
            std::vector<unsigned> bad; // suspect shards (pair lows)
            if (cross) {
                for (unsigned pi = 0; pi < G / 2; ++pi) {
                    const unsigned g_lo = pairLowGpu(pi, gap);
                    const F want =
                        abftPrev_[g_lo] + abftPrev_[g_lo + gap];
                    if (!(actual[g_lo] + actual[g_lo + gap] == want))
                        bad.push_back(g_lo);
                }
            } else {
                for (unsigned g = 0; g < G; ++g)
                    if (!(actual[g] == abftPrev_[g]))
                        bad.push_back(g);
            }
            if (bad.empty()) {
                abftPrev_ = std::move(actual);
                abftBoundary_++;
                return StepAction{};
            }
            // A mismatch without a live injector has no pre-step
            // snapshot to recover from (clean runs skip it to stay
            // overhead-honest): surface the corruption as-is.
            if (!abftInjectOn() || abftSnap_.size() != G)
                return StepAction{
                    Status::error(
                        StatusCode::DataCorruption,
                        detail::format("ABFT checksum mismatch at %s "
                                       "with no recovery snapshot",
                                       st.name.c_str())),
                    false};
            if (attempt >= rc_.abftMaxTileRetries)
                return abftEscalate(st, bad.front());

            fs_.abftCatches++;
            if (health_ != nullptr &&
                bad.front() < health_->numDevices())
                health_->recordFault(bad.front());
            uint64_t redo_w0 = 0;
            uint64_t redo_len = C;
            const F scale = stepScale<F>(st, pl_.logN);
            for (unsigned g : bad) {
                if (cross) {
                    abftRecomputeCrossPair(st, g);
                    fs_.tilesRecomputed++;
                    continue;
                }
                if (st.kind == StepKind::Scale) {
                    // An explicit twiddle pass is a host no-op, so
                    // restoring the shard recomputes it: the tile is
                    // the shard.
                    data().chunk(g) = abftSnap_[g];
                    fs_.tilesRecomputed++;
                    continue;
                }
                // Local passes: bisect to the stage-coupled
                // super-block via per-tile partial checksums of the
                // snapshot (previous boundary) against the current
                // data (next boundary) — the step is block-diagonal
                // over these tiles, so the transition holds per tile.
                const uint64_t SB =
                    (1ULL << pl_.logN) >> st.sBegin;
                for (uint64_t o = 0; o < C; o += SB) {
                    const F want =
                        abftSpanDot(prev_coef.chunk(g).data() + o,
                                    abftSnap_[g].data() + o, SB);
                    const F got =
                        abftSpanDot(cur_coef.chunk(g).data() + o,
                                    data().chunk(g).data() + o, SB);
                    if (got == want)
                        continue;
                    std::copy(abftSnap_[g].begin() + o,
                              abftSnap_[g].begin() + o + SB,
                              data().chunk(g).begin() + o);
                    // The same stage walk as the fused sweeps, for
                    // LocalPass and FusedLocalPass steps alike, n^-1
                    // included on the step that carries it.
                    const uint64_t h1 = SB >> (st.sEnd - st.sBegin);
                    fusedStages(data().chunk(g).data() + o, h1, h1, 0,
                                h1, st.sBegin, st.sEnd, slabs_, dir_,
                                fk_, scale);
                    fs_.tilesRecomputed++;
                    redo_w0 = o;
                    redo_len = SB;
                }
            }
            ++attempt;
            // The redone tile is itself kernel output: one fresh
            // deterministic draw per (step, attempt) may corrupt it
            // again, exercising the bounded-retry ladder.
            ComputeFaultOutcome out =
                faults_.computeFault(bad.front(), ord, attempt);
            if (out.corrupted)
                abftCorrupt(bad.front(), redo_w0, redo_len, out);
        }
    }

    /** Redo one exchanging pair's butterflies from the snapshot. */
    void
    abftRecomputeCrossPair(const ScheduleStep &st, unsigned g_lo)
    {
        const unsigned gap = st.distance;
        const uint64_t C = data().chunkSize();
        F *lo = data().chunk(g_lo).data();
        F *hi = data().chunk(g_lo + gap).data();
        // The span kernels run in place, so re-seed the pair from the
        // pre-step snapshot first; the butterflies themselves are the
        // same exact arithmetic the step originally ran.
        std::copy(abftSnap_[g_lo].begin(), abftSnap_[g_lo].end(), lo);
        std::copy(abftSnap_[g_lo + gap].begin(),
                  abftSnap_[g_lo + gap].end(), hi);
        const F *tws = slabs_.slab(st.sBegin);
        const uint64_t j0 = static_cast<uint64_t>(g_lo % gap) * C;
        if (dir_ == NttDirection::Forward)
            fk_.bflyFwd(lo, hi, tws + j0, 1, C);
        else
            fk_.bflyInv(lo, hi, tws + j0, 1, C);
    }

    /**
     * Recovery budget spent: restore the whole pre-step state and walk
     * the escalation ladder. Cross stages and forward local passes
     * fall back to the degrade-reschedule path (the suspect shard's
     * device is retired, exactly like a permanent loss); everything
     * the resume compiler cannot re-enter — the inverse local phase
     * (resume schedules skip it by contract) and the explicit twiddle
     * passes — fails with a clean DataCorruption status, as does the
     * last GPU.
     */
    StepAction
    abftEscalate(const ScheduleStep &st, unsigned suspect)
    {
        fs_.abftEscalations++;
        const unsigned G = data().numGpus();
        for (unsigned g = 0; g < G; ++g)
            data().chunk(g) = abftSnap_[g];
        const bool local = st.kind == StepKind::LocalPass ||
                           st.kind == StepKind::FusedLocalPass;
        const bool resumable =
            st.kind == StepKind::CrossStage ||
            (local && dir_ == NttDirection::Forward);
        if (!resumable || !rc_.allowDegraded || machine_.numGpus <= 1)
            return StepAction{
                Status::error(
                    StatusCode::DataCorruption,
                    detail::format(
                        "compute corruption at %s persisted across "
                        "%u tile recomputations",
                        st.name.c_str(), rc_.abftMaxTileRetries)),
                false};
        Status dst = degrade(static_cast<int>(suspect), st.sBegin);
        if (!dst.ok())
            return StepAction{dst, false};
        return StepAction{Status(), /*reschedule=*/true};
    }

    /** The one transform this executor runs. */
    DistributedVector<F> &data() { return *this->batch_.front(); }

    /**
     * The run's machine, shrunk in place when devices drop out. It is
     * the object the base's sys_ refers to, so waves priced after a
     * degradation price on the surviving devices.
     */
    MultiGpuSystem &machine_;
    const UniNttConfig &cfg_;
    const CostConstants &costs_;
    const std::vector<F> &input_;
    FaultInjector &faults_;
    const ResilienceConfig &rc_;
    DeviceHealthTracker *health_;
    NttPlan pl_;
    const unsigned logMg0_;
    /** The engine's spot-check counter (spotCheckStep). */
    std::atomic<uint64_t> &spotEpoch_;
    /** The caller's counters (may already hold health exclusions). */
    FaultStats &fs_;
    unsigned resumeStage_ = 0;

    // ABFT state (compile resets all but the ordinal).
    /** Schedule whose checked steps are verified (keeps coef alive). */
    std::shared_ptr<const StageSchedule> abftSched_;
    std::shared_ptr<const AbftCoefficients<F>> abftCoef_;
    /** Checked-step boundaries consumed so far. */
    size_t abftBoundary_ = 0;
    bool abftInited_ = false;
    /** Per-shard checksums of the data at the current boundary. */
    std::vector<F> abftPrev_;
    /** Pre-step shard snapshot (taken only while injection is live). */
    std::vector<std::vector<F>> &abftSnap_;
    /**
     * Injection clock: one tick per compute step with the guard
     * active, monotone across reschedules, identical in both dispatch
     * modes — the (device, step, attempt) triple of every draw is
     * unique for the run (sim/fault.hh seed-derivation contract).
     */
    uint64_t stepOrdinal_ = 0;
};

} // namespace unintt

#endif // UNINTT_UNINTT_EXECUTORS_HH
