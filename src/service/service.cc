#include "service/service.hh"

#include <algorithm>
#include <string>

#include "sim/fault.hh"
#include "unintt/distributed.hh"
#include "unintt/engine.hh"
#include "util/bitops.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "zkp/serialize.hh"
#include "zkp/stark.hh"

namespace unintt {

using F = Goldilocks;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Fault attributions per device one run may charge the fleet. */
constexpr uint64_t kMaxFaultChargePerRun = 4;

/** Minimum trace log so the STARK's FRI has at least one round. */
constexpr unsigned kMinProofLog = 5;

/** Composite key of the estimate/reference caches. */
uint64_t
cacheKey(JobKind kind, unsigned logN, uint64_t extra)
{
    return mix64((static_cast<uint64_t>(kind) << 56) ^
                 (static_cast<uint64_t>(logN) << 48) ^ mix64(extra));
}

/** serviceJobInput on @p engine's GPUs, lanes and kernels. */
DistributedVector<F>
jobInput(const UniNttEngine<F> &engine, unsigned logN, uint64_t seed)
{
    return serviceJobInput(logN, seed, engine.system().numGpus,
                           engine.hostLanes(), engine.kernels());
}

/** checksumShards of @p data on @p engine's lanes and kernels. */
uint64_t
outputChecksum(const UniNttEngine<F> &engine,
               const DistributedVector<F> &data)
{
    return checksumShardsPooled<F>(data.chunks(), engine.hostLanes(),
                                   engine.kernels());
}

} // namespace

DistributedVector<Goldilocks>
serviceJobInput(unsigned logN, uint64_t seed, unsigned gpus,
                unsigned lanes, const FieldKernels<Goldilocks> &fk)
{
    return DistributedVector<F>::seeded(size_t{1} << logN, gpus, seed,
                                        lanes, fk);
}

ProvingService::ProvingService(MultiGpuSystem fleet, ServiceConfig cfg,
                               ServiceChaos chaos)
    : fleet_(std::move(fleet)),
      cfg_(cfg),
      chaos_(std::move(chaos)),
      place_(fleet_.numGpus),
      queue_(cfg_),
      fleetHealth_(fleet_.numGpus),
      busy_(fleet_.numGpus, false)
{
    UNINTT_ASSERT(isPow2(fleet_.numGpus), "fleet size must be pow2");
    UNINTT_ASSERT(cfg_.jobGpus >= 1 && isPow2(cfg_.jobGpus),
                  "job GPU request must be a power of two");
    UNINTT_ASSERT(cfg_.jobGpus <= fleet_.numGpus,
                  "job GPU request exceeds the fleet");
    UNINTT_ASSERT(cfg_.maxAttempts >= 1, "jobs need at least one attempt");
    for (unsigned dev : chaos_.killDevices)
        UNINTT_ASSERT(dev < fleet_.numGpus,
                      "chaos kill device outside the fleet");
}

ProvingService::~ProvingService() = default;

unsigned
ProvingService::inFlightOf(unsigned tenant) const
{
    auto it = inFlight_.find(tenant);
    return it == inFlight_.end() ? 0 : it->second;
}

ServiceCounters &
ProvingService::countersOf(unsigned tenant)
{
    return counters_[tenant];
}

ServiceCounters
ProvingService::totals() const
{
    ServiceCounters sum;
    for (const auto &kv : counters_)
        sum += kv.second;
    return sum;
}

bool
ProvingService::idle() const
{
    return queue_.empty() && busyCount_ == 0 && jobs_.empty();
}

double
ProvingService::nextEventTime() const
{
    return events_.empty() ? kInf : events_.top().at;
}

void
ProvingService::scheduleEvent(double at, Event::Kind kind, uint64_t id)
{
    events_.push(Event{at, eventSeq_++, kind, id});
}

MultiGpuSystem
ProvingService::subMachine(unsigned gpus) const
{
    MultiGpuSystem sub = fleet_;
    sub.numGpus = gpus;
    if (sub.gpusPerNode != 0 && gpus <= sub.gpusPerNode)
        sub.gpusPerNode = 0; // the subset fits inside one node
    return sub;
}

bool
ProvingService::pendingKill(unsigned device) const
{
    if (now_ < chaos_.killAtSeconds || fleetHealth_.isLost(device))
        return false;
    if (std::find(chaos_.killDevices.begin(), chaos_.killDevices.end(),
                  device) == chaos_.killDevices.end())
        return false;
    return std::find(firedKills_.begin(), firedKills_.end(), device) ==
           firedKills_.end();
}

bool
ProvingService::anyPendingKill(const std::vector<unsigned> &devices) const
{
    for (unsigned dev : devices)
        if (pendingKill(dev))
            return true;
    return false;
}

Status
ProvingService::submit(const JobSpec &spec, double now)
{
    runUntil(std::max(now, now_));

    if (spec.id == 0 || jobs_.count(spec.id))
        return Status::error(StatusCode::InvalidArgument,
                             "job ids must be unique and nonzero");
    const bool proof = spec.kind == JobKind::Proof;
    if (proof && spec.logN < kMinProofLog)
        return Status::error(StatusCode::InvalidArgument,
                             "proof traces need logN >= " +
                                 std::to_string(kMinProofLog));
    // A job's largest transform (a proof's trace LDE) must fit the
    // field's two-adicity; a transform needs two elements per shard.
    const unsigned ntt_log =
        spec.logN + (proof ? StarkParams{}.logBlowup : 0);
    if (spec.logN > F::kTwoAdicity || ntt_log > F::kTwoAdicity ||
        (!proof && spec.logN <= log2Exact(cfg_.jobGpus)))
        return Status::error(StatusCode::InvalidArgument,
                             "a transform of 2^" + std::to_string(ntt_log) +
                                 " is out of range on " +
                                 std::to_string(cfg_.jobGpus) + " GPUs");

    ServiceCounters &tc = countersOf(spec.tenant);
    tc.submitted++;

    QueuedJob qj;
    qj.id = spec.id;
    qj.tenant = spec.tenant;
    qj.sla = spec.sla;
    qj.kind = spec.kind;
    qj.logN = spec.logN;
    qj.readyAt = now_;
    qj.deadlineAt =
        spec.deadlineSeconds > 0 ? now_ + spec.deadlineSeconds : kInf;

    Status st = queue_.admit(qj);
    if (!st.ok()) {
        if (st.code() == StatusCode::Overloaded)
            tc.shed++;
        else if (st.code() == StatusCode::QuotaExceeded)
            tc.quotaRejected++;
        debugLog("service: rejected job %llu (%s)",
                 static_cast<unsigned long long>(spec.id),
                 st.toString().c_str());
        return st;
    }
    tc.admitted++;

    Job job;
    job.spec = spec;
    job.arrival = now_;
    job.deadlineAt = qj.deadlineAt;
    job.preferredGpus = cfg_.jobGpus;
    jobs_.emplace(spec.id, std::move(job));
    if (qj.deadlineAt < kInf)
        scheduleEvent(qj.deadlineAt, Event::Kind::Deadline, spec.id);

    pump();
    return Status();
}

void
ProvingService::runUntil(double t)
{
    UNINTT_ASSERT(t >= now_, "service time cannot run backwards");
    while (!events_.empty() && events_.top().at <= t) {
        Event e = events_.top();
        events_.pop();
        now_ = std::max(now_, e.at);
        handleEvent(e);
        pump();
    }
    now_ = std::max(now_, t);
    pump();
}

void
ProvingService::drain()
{
    while (!events_.empty()) {
        Event e = events_.top();
        events_.pop();
        now_ = std::max(now_, e.at);
        handleEvent(e);
        pump();
    }
    // Every queued job either ran, retried through a Ready event, or
    // was failed out when the fleet disappeared.
    UNINTT_ASSERT(queue_.empty() && busyCount_ == 0,
                  "drain left work behind without a pending event");
}

void
ProvingService::handleEvent(const Event &e)
{
    switch (e.kind) {
      case Event::Kind::Ready:
        // The retry backoff elapsed; pump() (run by the caller) will
        // consider the job again.
        return;
      case Event::Kind::Deadline: {
        auto it = jobs_.find(e.id);
        if (it == jobs_.end())
            return; // already finished
        Job &job = it->second;
        if (now_ < job.deadlineAt)
            return;
        if (job.running) {
            // Cancel-on-finish: the occupancy is already committed,
            // but the result will be discarded.
            job.deadlineCancelled = true;
            return;
        }
        queue_.erase(e.id);
        finalize(job, Status::error(StatusCode::DeadlineExceeded,
                                    "cancelled in queue at deadline"),
                 false);
        return;
      }
      case Event::Kind::Finish: {
        auto it = batches_.find(e.id);
        UNINTT_ASSERT(it != batches_.end(), "finish for unknown batch");
        RunningBatch batch = std::move(it->second);
        batches_.erase(it);
        for (unsigned dev : batch.devices) {
            UNINTT_ASSERT(busy_[dev], "finish released an idle device");
            busy_[dev] = false;
            busyCount_--;
        }
        for (size_t i = 0; i < batch.jobIds.size(); ++i)
            settle(batch.jobIds[i], batch.status[i], batch.verified[i]);
        return;
      }
    }
}

void
ProvingService::failAllQueued(const Status &st)
{
    while (auto qj = queue_.popAny()) {
        auto it = jobs_.find(qj->id);
        if (it != jobs_.end())
            finalize(it->second, st, false);
    }
}

void
ProvingService::pump()
{
    while (true) {
        if (place_.idleUsable(fleetHealth_, busy_) == 0) {
            if (busyCount_ == 0 && fleetHealth_.usableCount() == 0 &&
                !queue_.empty())
                failAllQueued(Status::error(
                    StatusCode::DeviceLost,
                    "every fleet device is quarantined or lost"));
            return;
        }

        auto eligible = [&](const QueuedJob &q) {
            return inFlightOf(q.tenant) < cfg_.quota.maxInFlight;
        };
        auto popped = queue_.popRunnable(now_, eligible);
        if (!popped)
            return;

        Job &first = jobs_.at(popped->id);
        PlacementDecision decision =
            place_.place(fleetHealth_, busy_, first.preferredGpus);
        if (decision.devices.empty()) {
            // Backpressure: devices are busy; a Finish event will
            // re-pump.
            queue_.pushFront(*popped);
            return;
        }
        if (decision.degraded && popped->sla == SlaClass::Premium &&
            first.attempts == 0 &&
            fleetHealth_.usableCount() >= first.preferredGpus) {
            // Reserve the idle leftover for the premium head instead
            // of running it degraded (a 1-GPU run costs ~2x the
            // latency of waiting one launch for a pair) or letting
            // lower classes backfill the devices out from under it.
            // A Finish event is pending whenever the fleet is this
            // busy, so the reservation always resolves; once the
            // fleet itself cannot supply the width any more, premium
            // degrades like everyone else rather than waiting
            // forever.
            queue_.pushFront(*popped);
            return;
        }

        std::vector<QueuedJob> group{*popped};
        const bool clean_fabric = !cfg_.hardenedOnly &&
                                  !chaos_.fabricActive() &&
                                  !anyPendingKill(decision.devices);
        if (popped->kind != JobKind::Proof && clean_fabric &&
            cfg_.coalesceMax > 1) {
            // Count group membership against the in-flight quota as
            // we select; popMatching consults the predicate exactly
            // once per otherwise-runnable candidate.
            std::map<unsigned, unsigned> group_count;
            group_count[popped->tenant] = 1;
            auto group_eligible = [&](const QueuedJob &q) {
                if (jobs_.at(q.id).preferredGpus != first.preferredGpus)
                    return false;
                unsigned &extra = group_count[q.tenant];
                if (inFlightOf(q.tenant) + extra >=
                    cfg_.quota.maxInFlight)
                    return false;
                extra++;
                return true;
            };
            std::vector<QueuedJob> extras = queue_.popMatching(
                popped->kind, popped->logN, now_, cfg_.coalesceMax - 1,
                group_eligible);
            group.insert(group.end(), extras.begin(), extras.end());
        }

        startBatch(std::move(group), std::move(decision));
    }
}

void
ProvingService::startBatch(std::vector<QueuedJob> &&group,
                           PlacementDecision &&decision)
{
    const uint64_t batch_id = nextBatchId_++;
    RunningBatch batch;
    batch.devices = std::move(decision.devices);
    const unsigned g = static_cast<unsigned>(batch.devices.size());

    for (unsigned dev : batch.devices) {
        UNINTT_ASSERT(!busy_[dev], "placement chose a busy device");
        busy_[dev] = true;
        busyCount_++;
    }

    std::vector<Job *> jobs;
    for (const QueuedJob &qj : group) {
        Job &job = jobs_.at(qj.id);
        job.running = true;
        job.attempts++;
        if (job.startedAt < 0)
            job.startedAt = now_;
        inFlight_[job.spec.tenant]++;
        if (decision.degraded)
            job.everDegraded = true;
        if (group.size() > 1)
            job.everCoalesced = true;
        batch.jobIds.push_back(qj.id);
        jobs.push_back(&job);
    }
    if (group.size() > 1)
        coalescedLaunches_++;

    ScopedLogTag tag(
        group.size() == 1
            ? "tenant" + std::to_string(jobs[0]->spec.tenant) + "/job" +
                  std::to_string(jobs[0]->spec.id)
            : "batch" + std::to_string(batch_id));
    debugLog("service: launching %zu job(s) on %u GPU(s) at t=%g",
             group.size(), g, now_);

    ExecResult result;
    if (jobs.size() == 1 && jobs[0]->spec.kind == JobKind::Proof)
        result = executeProof(*jobs[0], batch.devices);
    else if (jobs.size() == 1 &&
             (cfg_.hardenedOnly || chaos_.fabricActive() ||
              anyPendingKill(batch.devices)))
        result = executeResilient(*jobs[0], batch.devices);
    else
        result = executePlainBatch(jobs, batch.devices);

    batch.status = std::move(result.status);
    batch.verified = std::move(result.verified);
    batch.seconds = result.seconds;
    UNINTT_ASSERT(batch.status.size() == batch.jobIds.size(),
                  "one status per batched job");
    busyGpuSeconds_ += batch.seconds * g;

    scheduleEvent(now_ + batch.seconds, Event::Kind::Finish, batch_id);
    batches_.emplace(batch_id, std::move(batch));
}

void
ProvingService::settle(uint64_t job_id, const Status &st, bool verified)
{
    auto it = jobs_.find(job_id);
    UNINTT_ASSERT(it != jobs_.end(), "settling an unknown job");
    Job &job = it->second;
    job.running = false;
    auto fit = inFlight_.find(job.spec.tenant);
    UNINTT_ASSERT(fit != inFlight_.end() && fit->second > 0,
                  "in-flight accounting underflow");
    fit->second--;

    // The deadline watchdog wins over any result: late success is
    // still a miss, and late failures don't retry.
    if (job.deadlineCancelled || now_ > job.deadlineAt) {
        finalize(job,
                 Status::error(StatusCode::DeadlineExceeded,
                               "finished past the deadline"),
                 false);
        return;
    }

    if (st.ok()) {
        if (cfg_.verifyOutputs && !verified) {
            // An OK status with a wrong result is the one outcome the
            // service must never report as success.
            corruptResults_++;
            finalize(job,
                     Status::error(StatusCode::DataCorruption,
                                   "output failed reference check"),
                     false);
            return;
        }
        finalize(job, st, verified);
        return;
    }

    job.lastError = st;
    const bool retryable = st.code() != StatusCode::InvalidArgument &&
                           job.attempts < cfg_.maxAttempts;
    if (retryable) {
        const double backoff = cfg_.retry.backoffSeconds(
            job.attempts - 1, mix64(cfg_.seed ^ job.spec.id));
        const double ready_at = now_ + backoff;
        if (ready_at < job.deadlineAt) {
            countersOf(job.spec.tenant).retried++;
            if (cfg_.allowDegraded && job.preferredGpus > 1 &&
                (st.code() == StatusCode::DeviceLost ||
                 job.attempts >= 2)) {
                job.preferredGpus /= 2;
                job.everDegraded = true;
            }
            QueuedJob qj;
            qj.id = job.spec.id;
            qj.tenant = job.spec.tenant;
            qj.sla = job.spec.sla;
            qj.kind = job.spec.kind;
            qj.logN = job.spec.logN;
            qj.readyAt = ready_at;
            qj.deadlineAt = job.deadlineAt;
            queue_.requeue(qj);
            scheduleEvent(ready_at, Event::Kind::Ready, job.spec.id);
            debugLog("service: job %llu retry %u in %gs (%s)",
                     static_cast<unsigned long long>(job.spec.id),
                     job.attempts, backoff, st.toString().c_str());
            return;
        }
    }
    finalize(job, st, false);
}

void
ProvingService::finalize(Job &job, const Status &st, bool verified)
{
    JobOutcome out;
    out.id = job.spec.id;
    out.tenant = job.spec.tenant;
    out.sla = job.spec.sla;
    out.kind = job.spec.kind;
    out.status = st;
    out.arrival = job.arrival;
    out.started = job.startedAt >= 0 ? job.startedAt : now_;
    out.finish = now_;
    out.attempts = job.attempts;
    out.degraded = job.everDegraded;
    out.coalesced = job.everCoalesced;
    out.verified = verified;

    ServiceCounters &tc = countersOf(job.spec.tenant);
    if (st.ok())
        tc.completed++;
    else if (st.code() == StatusCode::DeadlineExceeded)
        tc.deadlineMissed++;
    else
        tc.failed++;
    if (job.everDegraded)
        tc.degraded++;
    if (job.everCoalesced)
        tc.coalesced++;

    jobs_.erase(job.spec.id);
    outcomes_.push_back(out);
    if (hook_)
        hook_(out);
}

// ---------------------------------------------------------------------
// Executors: compute real results now, price the virtual-time cost.
// ---------------------------------------------------------------------

ProvingService::ExecResult
ProvingService::executePlainBatch(std::vector<Job *> &jobs,
                                  const std::vector<unsigned> &devices)
{
    const unsigned g = static_cast<unsigned>(devices.size());
    UniNttConfig ec = UniNttConfig::allOn();
    ec.hostThreads = cfg_.hostThreads;
    UniNttEngine<F> engine(subMachine(g), ec);

    std::vector<DistributedVector<F>> data;
    data.reserve(jobs.size());
    for (Job *job : jobs)
        data.push_back(jobInput(engine, job->spec.logN, job->spec.seed));

    const JobKind kind = jobs[0]->spec.kind;
    SimReport rep = kind == JobKind::NttForward
                        ? engine.forwardBatch(data)
                        : engine.inverseBatch(data);
    hostExec_ += rep.hostExecStats();
    fleetHealth_.endRun(); // clean run: tick the decay clocks

    ExecResult result;
    result.seconds = rep.totalSeconds();
    for (size_t i = 0; i < jobs.size(); ++i) {
        bool ok = true;
        if (cfg_.verifyOutputs) {
            ok = outputChecksum(engine, data[i]) ==
                 referenceChecksum(kind, jobs[i]->spec.logN,
                                   jobs[i]->spec.seed);
        }
        result.status.push_back(Status());
        result.verified.push_back(ok);
    }
    return result;
}

ProvingService::ExecResult
ProvingService::executeResilient(Job &job,
                                 const std::vector<unsigned> &devices)
{
    const unsigned g = static_cast<unsigned>(devices.size());
    UniNttConfig ec = UniNttConfig::allOn();
    ec.hostThreads = cfg_.hostThreads;
    UniNttEngine<F> engine(subMachine(g), ec);

    DistributedVector<F> data =
        jobInput(engine, job.spec.logN, job.spec.seed);

    FaultModel model;
    model.seed = mix64(cfg_.seed ^
                       mix64(job.spec.id * 0x9e3779b97f4a7c15ULL +
                             job.attempts));
    model.transientExchangeRate = chaos_.transientRate;
    model.bitFlipRate = chaos_.bitFlipRate;
    model.stragglerRate = chaos_.stragglerRate;
    model.stragglerSlowdown = chaos_.stragglerSlowdown;
    std::vector<unsigned> consumed_kills;
    for (unsigned i = 0; i < g; ++i) {
        if (!pendingKill(devices[i]))
            continue;
        model.dropouts.push_back(DeviceDropout{i, 0});
        consumed_kills.push_back(devices[i]);
        firedKills_.push_back(devices[i]);
    }

    FaultInjector injector(model);
    ResilienceConfig rc;
    rc.retry = cfg_.exchangeRetry;
    rc.spotChecks = cfg_.spotChecks;
    rc.spotCheckSeed = mix64(cfg_.seed ^ job.spec.id);
    DeviceHealthTracker run_health(g);

    Result<SimReport> r =
        job.spec.kind == JobKind::NttForward
            ? engine.forwardResilient(data, injector, rc, &run_health)
            : engine.inverseResilient(data, injector, rc, &run_health);

    translateRunHealth(run_health, devices);
    // A kill consumed by this run must leave the fleet device dead
    // even if the run ended before the dropout was observed (e.g. a
    // single-GPU placement has no exchanges to die in).
    for (unsigned dev : consumed_kills)
        if (!fleetHealth_.isLost(dev))
            fleetHealth_.recordDeviceLost(dev);

    ExecResult result;
    if (r.ok()) {
        const SimReport &rep = r.value();
        hostExec_ += rep.hostExecStats();
        faults_ += rep.faultStats();
        if (rep.faultStats().degradedReplans > 0)
            job.everDegraded = true;
        result.seconds = rep.totalSeconds();
        bool ok = true;
        if (cfg_.verifyOutputs) {
            ok = outputChecksum(engine, data) ==
                 referenceChecksum(job.spec.kind, job.spec.logN,
                                   job.spec.seed);
        }
        result.status.push_back(Status());
        result.verified.push_back(ok);
    } else {
        // A failed attempt still occupied its devices; charge the
        // fault-free estimate as the occupancy.
        result.seconds = estimateOn(job.spec.kind, job.spec.logN, g);
        result.status.push_back(r.status());
        result.verified.push_back(false);
    }
    return result;
}

ProvingService::ExecResult
ProvingService::executeProof(Job &job,
                             const std::vector<unsigned> &devices)
{
    const unsigned g = static_cast<unsigned>(devices.size());
    ExecResult result;
    result.seconds = estimateOn(JobKind::Proof, job.spec.logN, g);

    // A device death interrupts the prover mid-pipeline; the
    // checkpoint store keeps every completed stage for the retry.
    std::vector<unsigned> dying;
    for (unsigned dev : devices)
        if (pendingKill(dev))
            dying.push_back(dev);
    if (!dying.empty()) {
        for (unsigned dev : dying) {
            firedKills_.push_back(dev);
            fleetHealth_.recordDeviceLost(dev);
        }
        fleetHealth_.endRun();
        result.status.push_back(Status::error(
            StatusCode::DeviceLost,
            "device died under the proof pipeline"));
        result.verified.push_back(false);
        return result;
    }

    if (!job.ckpt)
        job.ckpt = std::make_unique<CheckpointStore>();
    const F t0 = F::fromU64(mix64(job.spec.seed));

    Rng gate_rng(mix64(cfg_.seed ^ job.spec.id) +
                 job.attempts * 0x9e3779b97f4a7c15ULL);
    auto gate = [&](unsigned, const std::string &) -> Status {
        if (gate_rng.uniform() < chaos_.stageFailRate)
            return Status::error(StatusCode::TransientFault,
                                 "chaos: proof stage interrupted");
        return Status();
    };
    auto round_gate = [&](const std::string &, unsigned) -> Status {
        if (gate_rng.uniform() < chaos_.roundFailRate)
            return Status::error(StatusCode::TransientFault,
                                 "chaos: FRI round interrupted");
        return Status();
    };

    const SquareStark stark;
    Result<StarkProof> r = stark.proveCheckpointed(
        t0, job.spec.logN, *job.ckpt, gate, round_gate);
    fleetHealth_.endRun();

    if (!r.ok()) {
        result.status.push_back(r.status());
        result.verified.push_back(false);
        return result;
    }
    bool ok = true;
    if (cfg_.verifyOutputs) {
        const std::vector<uint8_t> bytes =
            serializeStarkProof(r.value());
        ok = checksumBytes(bytes.data(), bytes.size()) ==
             referenceChecksum(JobKind::Proof, job.spec.logN,
                               job.spec.seed);
    }
    result.status.push_back(Status());
    result.verified.push_back(ok);
    return result;
}

void
ProvingService::translateRunHealth(
    const DeviceHealthTracker &run_health,
    const std::vector<unsigned> &devices)
{
    for (unsigned i = 0; i < devices.size(); ++i) {
        if (run_health.isLost(i)) {
            if (!fleetHealth_.isLost(devices[i]))
                fleetHealth_.recordDeviceLost(devices[i]);
            continue;
        }
        const uint64_t events = std::min(run_health.faultEvents(i),
                                         kMaxFaultChargePerRun);
        for (uint64_t k = 0; k < events; ++k)
            fleetHealth_.recordFault(devices[i]);
    }
    fleetHealth_.endRun();
}

// ---------------------------------------------------------------------
// Pricing and reference results.
// ---------------------------------------------------------------------

double
ProvingService::estimateOn(JobKind kind, unsigned logN,
                           unsigned gpus) const
{
    const uint64_t key = cacheKey(kind, logN, gpus);
    auto it = estimateCache_.find(key);
    if (it != estimateCache_.end())
        return it->second;

    UniNttConfig ec = UniNttConfig::allOn();
    ec.hostThreads = cfg_.hostThreads;
    UniNttEngine<F> engine(subMachine(gpus), ec);
    double seconds;
    if (kind == JobKind::Proof) {
        // Proxy: the prover's dominant cost is its LDE transforms —
        // three committed polynomials at blowup 4 plus the FRI
        // folding, ~6 transforms of size 2^(logN+2).
        seconds =
            engine.analyticRun(logN + 2, NttDirection::Forward, 6)
                .totalSeconds();
    } else {
        const NttDirection dir = kind == JobKind::NttForward
                                     ? NttDirection::Forward
                                     : NttDirection::Inverse;
        seconds = engine.analyticRun(logN, dir).totalSeconds();
    }
    estimateCache_.emplace(key, seconds);
    return seconds;
}

double
ProvingService::estimateServiceSeconds(JobKind kind, unsigned logN) const
{
    return estimateOn(kind, logN, cfg_.jobGpus);
}

uint64_t
ProvingService::referenceChecksum(JobKind kind, unsigned logN,
                                  uint64_t seed) const
{
    const uint64_t key = cacheKey(kind, logN, mix64(seed) + 1);
    auto it = referenceCache_.find(key);
    if (it != referenceCache_.end())
        return it->second;

    uint64_t checksum = 0;
    if (kind == JobKind::Proof) {
        const SquareStark stark;
        const std::vector<uint8_t> bytes = serializeStarkProof(
            stark.prove(F::fromU64(mix64(seed)), logN));
        checksum = checksumBytes(bytes.data(), bytes.size());
    } else {
        // The transform's global result is independent of the
        // sharding, so the cheapest fault-free machine serves as the
        // oracle for every placement width.
        UniNttConfig ec = UniNttConfig::allOn();
        ec.hostThreads = cfg_.hostThreads;
        UniNttEngine<F> engine(subMachine(1), ec);
        DistributedVector<F> data = jobInput(engine, logN, seed);
        if (kind == JobKind::NttForward)
            engine.forward(data);
        else
            engine.inverse(data);
        checksum = outputChecksum(engine, data);
    }
    referenceCache_.emplace(key, checksum);
    return checksum;
}

SimReport
ProvingService::report() const
{
    SimReport rep;
    for (const auto &kv : counters_)
        rep.addServiceCounters("tenant" + std::to_string(kv.first),
                               kv.second);
    rep.addServiceCounters("", totals());
    rep.addFaultStats(faults_);
    rep.addHostExecStats(hostExec_);
    return rep;
}

} // namespace unintt
