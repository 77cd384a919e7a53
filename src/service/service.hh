/**
 * @file
 * The multi-tenant proving service: a discrete-event scheduler that
 * places concurrent NTT and proof jobs onto the simulated multi-GPU
 * fleet.
 *
 * The pipeline is queue -> admission -> placement -> executor:
 *
 *  - submit() runs admission control: class-aware load shedding
 *    against a bounded queue and per-tenant quotas. Every rejection
 *    is a recoverable Status (Overloaded / QuotaExceeded) and a
 *    per-tenant counter — overload is never a silent drop.
 *  - The scheduler pops the highest-SLA runnable job, asks the
 *    placement policy for a power-of-two subset of idle devices the
 *    fleet health tracker still trusts, and coalesces small
 *    same-shape transforms into one batched launch when the fabric
 *    is clean.
 *  - Execution runs in virtual time: the functional engines compute
 *    real (bit-exact, verifiable) results immediately, and the
 *    simulated duration schedules a Finish event. Latency statistics
 *    are therefore deterministic functions of the seed.
 *  - A watchdog enforces per-job deadlines: queued jobs are cancelled
 *    at the deadline, and results that finish late are discarded as
 *    DeadlineExceeded. Failed attempts retry with capped,
 *    jitter-decorrelated exponential backoff; after a device loss
 *    the retry may degrade to half the GPUs instead of failing.
 *  - Proof jobs run the checkpointed STARK pipeline against a
 *    per-job CheckpointStore that survives across retries, so a
 *    retry resumes from the last completed stage instead of
 *    recomputing the proof from scratch.
 *
 * The service never trusts an OK status alone: every completed
 * result is checksummed against a fault-free reference, and a
 * mismatch is reported as DataCorruption (the chaos soak asserts
 * this counter stays zero).
 */

#ifndef UNINTT_SERVICE_SERVICE_HH
#define UNINTT_SERVICE_SERVICE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "field/goldilocks.hh"
#include "service/placement.hh"
#include "service/queue.hh"
#include "service/types.hh"
#include "sim/multi_gpu.hh"
#include "sim/report.hh"
#include "unintt/distributed.hh"
#include "unintt/health.hh"
#include "util/status.hh"
#include "zkp/checkpoint.hh"

namespace unintt {

/**
 * Faults the service's world injects while it runs. Fabric rates
 * apply to every resilient transform; device kills fire the first
 * time the victim is scheduled at or after the kill time; the proof
 * gates interrupt the checkpointed prover pipeline.
 */
struct ServiceChaos
{
    /** P(one transmission attempt fails) per exchange. */
    double transientRate = 0;
    /** P(an exchange payload arrives corrupted). */
    double bitFlipRate = 0;
    /** P(an exchange is stretched by a straggler). */
    double stragglerRate = 0;
    double stragglerSlowdown = 4.0;
    /** Fleet device ids that die permanently. */
    std::vector<unsigned> killDevices;
    /** Simulated time at which the kills arm. */
    double killAtSeconds = 0;
    /** P(a proof pipeline stage is interrupted before it runs). */
    double stageFailRate = 0;
    /** P(a FRI commit round is interrupted). */
    double roundFailRate = 0;

    /** True iff the fabric can corrupt or delay exchanges. */
    bool
    fabricActive() const
    {
        return transientRate > 0 || bitFlipRate > 0 || stragglerRate > 0;
    }

    bool
    any() const
    {
        return fabricActive() || !killDevices.empty() ||
               stageFailRate > 0 || roundFailRate > 0;
    }
};

/** Multi-tenant scheduler over one simulated fleet. */
class ProvingService
{
  public:
    /** Called as each job reaches a terminal outcome. */
    using CompletionHook = std::function<void(const JobOutcome &)>;

    ProvingService(MultiGpuSystem fleet, ServiceConfig cfg = ServiceConfig{},
                   ServiceChaos chaos = ServiceChaos{});
    ~ProvingService();

    /**
     * Submit a job at simulated time @p now (>= the current service
     * time; due events are processed first). Returns OK on admission
     * or the recoverable rejection (Overloaded, QuotaExceeded,
     * InvalidArgument).
     */
    Status submit(const JobSpec &spec, double now);

    /** Current simulated time. */
    double now() const { return now_; }

    /** Nothing queued and nothing running. */
    bool idle() const;

    /** Time of the next pending event (infinity when idle). */
    double nextEventTime() const;

    /** Process every event due by @p t, then advance time to @p t. */
    void runUntil(double t);

    /** Run until every admitted job has a terminal outcome. */
    void drain();

    /** Install a completion callback (closed-loop load generators). */
    void setCompletionHook(CompletionHook hook) { hook_ = std::move(hook); }

    /** Terminal outcomes in completion order. */
    const std::vector<JobOutcome> &outcomes() const { return outcomes_; }

    /** The fleet-level circuit breaker. */
    const DeviceHealthTracker &health() const { return fleetHealth_; }

    /** Per-tenant outcome counters. */
    const std::map<unsigned, ServiceCounters> &
    tenantCounters() const
    {
        return counters_;
    }

    /** Counters summed over all tenants. */
    ServiceCounters totals() const;

    /** Completed results whose checksum did not match the reference. */
    uint64_t corruptResults() const { return corruptResults_; }

    /** Transforms that rode a coalesced multi-job launch. */
    uint64_t coalescedLaunches() const { return coalescedLaunches_; }

    /** GPU-seconds of simulated occupancy scheduled so far. */
    double busyGpuSeconds() const { return busyGpuSeconds_; }

    /** Jobs waiting in the admission queue. */
    size_t queueDepth() const { return queue_.size(); }

    /**
     * Service counters, engine fault totals and host-execution facts
     * as a SimReport — the same reporting channel engine runs use.
     */
    SimReport report() const;

    /**
     * Simulated seconds one job of (@p kind, @p logN) takes on the
     * configured GPU request, from the analytic engine (proofs are
     * priced by their LDE transform volume). Load generators derive
     * offered-load rates from this.
     */
    double estimateServiceSeconds(JobKind kind, unsigned logN) const;

  private:
    struct Event
    {
        enum class Kind { Ready, Finish, Deadline };
        double at = 0;
        uint64_t seq = 0;
        Kind kind = Kind::Ready;
        /** Job id (Ready/Deadline) or batch id (Finish). */
        uint64_t id = 0;
    };

    struct EventAfter
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };

    struct Job
    {
        JobSpec spec;
        double arrival = 0;
        /** First execution start; negative until the job first runs. */
        double startedAt = -1;
        double deadlineAt = std::numeric_limits<double>::infinity();
        unsigned attempts = 0;
        unsigned preferredGpus = 1;
        bool everDegraded = false;
        bool everCoalesced = false;
        bool running = false;
        Status lastError;
        /** Watchdog fired while the job was running. */
        bool deadlineCancelled = false;
        /** Proof state kept across retries (resume, not recompute). */
        std::unique_ptr<CheckpointStore> ckpt;
    };

    /** One launch in flight; outcomes realize at the Finish event. */
    struct RunningBatch
    {
        std::vector<uint64_t> jobIds;
        std::vector<unsigned> devices;
        std::vector<Status> status;
        std::vector<bool> verified;
        double seconds = 0;
    };

    /** Outcome of executing one launch now (virtual time). */
    struct ExecResult
    {
        std::vector<Status> status;
        std::vector<bool> verified;
        double seconds = 0;
    };

    void handleEvent(const Event &e);
    void pump();
    void startBatch(std::vector<QueuedJob> &&group,
                    PlacementDecision &&decision);
    void settle(uint64_t job_id, const Status &st, bool verified);
    void finalize(Job &job, const Status &st, bool verified);
    void failAllQueued(const Status &st);
    void scheduleEvent(double at, Event::Kind kind, uint64_t id);

    ExecResult executePlainBatch(std::vector<Job *> &jobs,
                                 const std::vector<unsigned> &devices);
    ExecResult executeResilient(Job &job,
                                const std::vector<unsigned> &devices);
    ExecResult executeProof(Job &job,
                            const std::vector<unsigned> &devices);

    /** Fleet devices armed to die that have not been consumed yet. */
    bool pendingKill(unsigned device) const;
    bool anyPendingKill(const std::vector<unsigned> &devices) const;

    MultiGpuSystem subMachine(unsigned gpus) const;
    unsigned inFlightOf(unsigned tenant) const;
    ServiceCounters &countersOf(unsigned tenant);
    double estimateOn(JobKind kind, unsigned logN, unsigned gpus) const;
    uint64_t referenceChecksum(JobKind kind, unsigned logN,
                               uint64_t seed) const;
    void translateRunHealth(const DeviceHealthTracker &run_health,
                            const std::vector<unsigned> &devices);

    MultiGpuSystem fleet_;
    ServiceConfig cfg_;
    ServiceChaos chaos_;

    PlacementPolicy place_;
    AdmissionQueue queue_;
    DeviceHealthTracker fleetHealth_;
    std::vector<bool> busy_;
    unsigned busyCount_ = 0;

    double now_ = 0;
    uint64_t eventSeq_ = 0;
    std::priority_queue<Event, std::vector<Event>, EventAfter> events_;

    std::map<uint64_t, Job> jobs_;
    std::map<uint64_t, RunningBatch> batches_;
    uint64_t nextBatchId_ = 1;
    std::map<unsigned, unsigned> inFlight_;
    std::vector<unsigned> firedKills_;

    std::vector<JobOutcome> outcomes_;
    std::map<unsigned, ServiceCounters> counters_;
    uint64_t corruptResults_ = 0;
    uint64_t coalescedLaunches_ = 0;
    double busyGpuSeconds_ = 0;
    FaultStats faults_;
    HostExecStats hostExec_;
    CompletionHook hook_;

    /** (kind, logN, gpus) -> simulated seconds. */
    mutable std::map<uint64_t, double> estimateCache_;
    /** (kind, logN, seed-mix) -> fault-free output checksum. */
    mutable std::map<uint64_t, uint64_t> referenceCache_;
};

/**
 * The input of a (kind, logN, seed) transform job over @p gpus
 * devices: global element i is Goldilocks::fromU64(mix64(seed ^ i)),
 * generated shard by shard through @p fk's seededFill on @p lanes
 * pool lanes.
 */
DistributedVector<Goldilocks>
serviceJobInput(unsigned logN, uint64_t seed, unsigned gpus,
                unsigned lanes, const FieldKernels<Goldilocks> &fk);

} // namespace unintt

#endif // UNINTT_SERVICE_SERVICE_HH
