/**
 * @file
 * Multi-tenant proving service: admission control, class-aware load
 * shedding, priority scheduling, deadlines, capped-and-jittered
 * retries, degraded placement after device loss, coalescing, and the
 * zero-silent-corruption invariant. Everything runs in virtual time,
 * so every test is deterministic and fast.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "field/babybear.hh"
#include "service/loadgen.hh"
#include "service/placement.hh"
#include "service/queue.hh"
#include "service/service.hh"
#include "sim/multi_gpu.hh"
#include "unintt/engine.hh"
#include "util/checksum.hh"
#include "util/random.hh"
#include "zkp/air.hh"

using namespace unintt;

namespace {

QueuedJob
queued(uint64_t id, SlaClass sla, unsigned tenant = 0,
       double ready_at = 0)
{
    QueuedJob q;
    q.id = id;
    q.tenant = tenant;
    q.sla = sla;
    q.kind = JobKind::NttForward;
    q.logN = 10;
    q.readyAt = ready_at;
    return q;
}

ServiceConfig
smallQueueConfig()
{
    ServiceConfig cfg;
    cfg.queueCapacity = 10;
    return cfg;
}

JobSpec
spec(uint64_t id, JobKind kind = JobKind::NttForward,
     unsigned log_n = 10, unsigned tenant = 0,
     SlaClass sla = SlaClass::Standard)
{
    JobSpec s;
    s.id = id;
    s.tenant = tenant;
    s.sla = sla;
    s.kind = kind;
    s.logN = log_n;
    s.seed = 7 + id % 3;
    return s;
}

} // namespace

// ---------------------------------------------------------------------
// Admission queue.
// ---------------------------------------------------------------------

TEST(AdmissionQueue, ClassAwareSheddingKeepsPremiumLongest)
{
    AdmissionQueue q(smallQueueConfig());
    // Fill to 5 = 0.5 * 10: the Batch threshold.
    for (uint64_t i = 1; i <= 5; ++i)
        ASSERT_TRUE(q.admit(queued(i, SlaClass::Batch, i)).ok());

    EXPECT_EQ(q.admit(queued(6, SlaClass::Batch, 6)).code(),
              StatusCode::Overloaded);
    // Standard still fits until 8 = 0.8 * 10.
    ASSERT_TRUE(q.admit(queued(7, SlaClass::Standard, 7)).ok());
    ASSERT_TRUE(q.admit(queued(8, SlaClass::Standard, 8)).ok());
    ASSERT_TRUE(q.admit(queued(9, SlaClass::Standard, 9)).ok());
    EXPECT_EQ(q.admit(queued(10, SlaClass::Standard, 10)).code(),
              StatusCode::Overloaded);
    // Premium is only stopped by a literally full queue.
    ASSERT_TRUE(q.admit(queued(11, SlaClass::Premium, 11)).ok());
    ASSERT_TRUE(q.admit(queued(12, SlaClass::Premium, 12)).ok());
    EXPECT_EQ(q.size(), 10u);
    EXPECT_EQ(q.admit(queued(13, SlaClass::Premium, 13)).code(),
              StatusCode::Overloaded);
}

TEST(AdmissionQueue, PerTenantQueuedQuota)
{
    ServiceConfig cfg;
    cfg.queueCapacity = 64;
    cfg.quota.maxQueued = 3;
    AdmissionQueue q(cfg);
    for (uint64_t i = 1; i <= 3; ++i)
        ASSERT_TRUE(q.admit(queued(i, SlaClass::Standard, 5)).ok());
    EXPECT_EQ(q.admit(queued(4, SlaClass::Standard, 5)).code(),
              StatusCode::QuotaExceeded);
    // Another tenant is unaffected.
    EXPECT_TRUE(q.admit(queued(5, SlaClass::Standard, 6)).ok());
    EXPECT_EQ(q.queuedOf(5), 3u);
    EXPECT_EQ(q.queuedOf(6), 1u);
}

TEST(AdmissionQueue, PopsHighestClassFirstFifoWithin)
{
    AdmissionQueue q(smallQueueConfig());
    ASSERT_TRUE(q.admit(queued(1, SlaClass::Batch)).ok());
    ASSERT_TRUE(q.admit(queued(2, SlaClass::Premium)).ok());
    ASSERT_TRUE(q.admit(queued(3, SlaClass::Standard)).ok());
    ASSERT_TRUE(q.admit(queued(4, SlaClass::Premium)).ok());

    auto all = [](const QueuedJob &) { return true; };
    std::vector<uint64_t> order;
    while (auto j = q.popRunnable(0, all))
        order.push_back(j->id);
    EXPECT_EQ(order, (std::vector<uint64_t>{2, 4, 3, 1}));
}

TEST(AdmissionQueue, SkipsBackoffAndExpiredJobs)
{
    AdmissionQueue q(smallQueueConfig());
    QueuedJob backing_off = queued(1, SlaClass::Premium, 0, 5.0);
    QueuedJob expired = queued(2, SlaClass::Premium);
    expired.deadlineAt = 1.0;
    QueuedJob runnable = queued(3, SlaClass::Batch);
    ASSERT_TRUE(q.admit(backing_off).ok());
    ASSERT_TRUE(q.admit(expired).ok());
    ASSERT_TRUE(q.admit(runnable).ok());

    auto all = [](const QueuedJob &) { return true; };
    // At t=2: job 1 is still backing off, job 2 is past its deadline,
    // so the Batch job runs despite its lower class.
    auto j = q.popRunnable(2.0, all);
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->id, 3u);
    // The backing-off job is the earliest future wake-up.
    EXPECT_DOUBLE_EQ(q.nextReadyAfter(0), 5.0);
    // At t=5 the backoff has elapsed.
    j = q.popRunnable(5.0, all);
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(j->id, 1u);
}

TEST(AdmissionQueue, PopMatchingOnlyTakesSameShape)
{
    AdmissionQueue q(smallQueueConfig());
    ASSERT_TRUE(q.admit(queued(1, SlaClass::Batch)).ok());
    QueuedJob other_shape = queued(2, SlaClass::Batch);
    other_shape.logN = 12;
    ASSERT_TRUE(q.admit(other_shape).ok());
    QueuedJob other_kind = queued(3, SlaClass::Batch);
    other_kind.kind = JobKind::NttInverse;
    ASSERT_TRUE(q.admit(other_kind).ok());
    ASSERT_TRUE(q.admit(queued(4, SlaClass::Premium)).ok());

    auto all = [](const QueuedJob &) { return true; };
    auto got = q.popMatching(JobKind::NttForward, 10, 0, 8, all);
    std::set<uint64_t> ids;
    for (const auto &j : got)
        ids.insert(j.id);
    EXPECT_EQ(ids, (std::set<uint64_t>{1, 4}));
    EXPECT_EQ(q.size(), 2u);
}

// ---------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------

TEST(Placement, PrefersHealthyAndSkipsBusyOrLost)
{
    DeviceHealthTracker health(4);
    health.recordDeviceLost(0);
    // Push device 1 to Suspect.
    health.recordFault(1);
    health.recordFault(1);

    PlacementPolicy place(4);
    std::vector<bool> busy(4, false);
    busy[3] = true;

    PlacementDecision d = place.place(health, busy, 2);
    // Device 0 is lost, 3 is busy; of {1, 2} the Healthy device 2
    // outranks the Suspect device 1, but both are needed for width 2.
    EXPECT_EQ(d.devices, (std::vector<unsigned>{1, 2}));
    EXPECT_FALSE(d.degraded);

    busy[2] = true;
    d = place.place(health, busy, 2);
    EXPECT_EQ(d.devices, (std::vector<unsigned>{1}));
    EXPECT_TRUE(d.degraded);
    EXPECT_EQ(place.idleUsable(health, busy), 1u);
}

TEST(Placement, PowerOfTwoWidths)
{
    DeviceHealthTracker health(8);
    health.recordDeviceLost(5);
    PlacementPolicy place(8);
    std::vector<bool> busy(8, false);
    // 7 usable devices; an 8-wide request degrades to the largest
    // power-of-two subset, best health first.
    PlacementDecision d = place.place(health, busy, 8);
    EXPECT_EQ(d.devices.size(), 4u);
    EXPECT_TRUE(d.degraded);
    EXPECT_TRUE(std::is_sorted(d.devices.begin(), d.devices.end()));
    for (unsigned dev : d.devices)
        EXPECT_NE(dev, 5u);
}

// ---------------------------------------------------------------------
// Service end-to-end (virtual time).
// ---------------------------------------------------------------------

TEST(ProvingService, RejectsMalformedSubmissions)
{
    ProvingService svc(makeDgxA100(4));
    EXPECT_EQ(svc.submit(spec(0), 0).code(), StatusCode::InvalidArgument);
    ASSERT_TRUE(svc.submit(spec(1), 0).ok());
    // Duplicate id while the first is still in flight.
    EXPECT_EQ(svc.submit(spec(1), 0).code(), StatusCode::InvalidArgument);
    // A 2-GPU transform needs at least 2^1 elements per shard.
    EXPECT_EQ(svc.submit(spec(2, JobKind::NttForward, 0), 0).code(),
              StatusCode::InvalidArgument);
    svc.drain();
}

TEST(ProvingService, RejectsTransformsWithoutALocalStage)
{
    // The planner needs logN > log2(GPUs): a shard of one element has
    // no local stage, and the service must refuse it, not exit.
    ProvingService two(makeDgxA100(4));
    EXPECT_EQ(two.submit(spec(1, JobKind::NttForward, 1), 0).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(two.submit(spec(2, JobKind::NttInverse, 1), 0).code(),
              StatusCode::InvalidArgument);
    ASSERT_TRUE(two.submit(spec(3, JobKind::NttInverse, 2), 0).ok());
    two.drain();
    ASSERT_EQ(two.outcomes().size(), 1u);
    EXPECT_TRUE(two.outcomes()[0].verified);

    ServiceConfig one_gpu;
    one_gpu.jobGpus = 1;
    ProvingService one(makeDgxA100(4), one_gpu);
    EXPECT_EQ(one.submit(spec(1, JobKind::NttForward, 0), 0).code(),
              StatusCode::InvalidArgument);
    one.drain();
}

TEST(ProvingService, RejectsTransformsBeyondTheTwoAdicity)
{
    // Goldilocks has two-adicity 32. Larger sizes are refused before
    // anything is allocated, as are shifts past 63.
    ProvingService svc(makeDgxA100(4));
    for (unsigned log_n : {33u, 64u, 200u})
        EXPECT_EQ(svc.submit(spec(log_n, JobKind::NttForward, log_n), 0)
                      .code(),
                  StatusCode::InvalidArgument)
            << "logN " << log_n;
    svc.drain();
    EXPECT_TRUE(svc.outcomes().empty());
}

TEST(ProvingService, RejectsProofsWhoseLdeExceedsTheTwoAdicity)
{
    // A proof runs its trace's LDE at 2^(logN + logBlowup).
    ProvingService svc(makeDgxA100(4));
    const unsigned log_n = 33 - StarkParams{}.logBlowup;
    EXPECT_EQ(svc.submit(spec(1, JobKind::Proof, log_n), 0).code(),
              StatusCode::InvalidArgument);
    svc.drain();
    EXPECT_TRUE(svc.outcomes().empty());
}

TEST(ProvingService, CompletesAndVerifiesCleanJobs)
{
    ProvingService svc(makeDgxA100(4));
    for (uint64_t i = 1; i <= 6; ++i)
        ASSERT_TRUE(svc
                        .submit(spec(i, i % 2 ? JobKind::NttForward
                                              : JobKind::NttInverse),
                                0)
                        .ok());
    svc.drain();

    ASSERT_EQ(svc.outcomes().size(), 6u);
    for (const JobOutcome &out : svc.outcomes()) {
        EXPECT_TRUE(out.status.ok()) << out.status.toString();
        EXPECT_TRUE(out.verified);
        EXPECT_EQ(out.attempts, 1u);
        EXPECT_GE(out.finish, out.started);
        EXPECT_GE(out.started, out.arrival);
    }
    ServiceCounters c = svc.totals();
    EXPECT_EQ(c.submitted, 6u);
    EXPECT_EQ(c.admitted, 6u);
    EXPECT_EQ(c.completed, 6u);
    EXPECT_EQ(svc.corruptResults(), 0u);
    EXPECT_GT(svc.busyGpuSeconds(), 0.0);
}

TEST(ProvingService, CoalescesSameShapeTransforms)
{
    ServiceConfig cfg;
    cfg.coalesceMax = 4;
    ProvingService svc(makeDgxA100(2), cfg);
    // 4 same-shape jobs from different tenants submitted while the
    // fleet is fully busy: the backlog coalesces into batched
    // launches once devices free up.
    for (uint64_t i = 1; i <= 5; ++i)
        ASSERT_TRUE(
            svc.submit(spec(i, JobKind::NttForward, 10,
                            static_cast<unsigned>(i), SlaClass::Batch),
                       0)
                .ok());
    svc.drain();

    EXPECT_GE(svc.coalescedLaunches(), 1u);
    uint64_t coalesced_jobs = 0;
    for (const JobOutcome &out : svc.outcomes()) {
        EXPECT_TRUE(out.status.ok());
        EXPECT_TRUE(out.verified);
        coalesced_jobs += out.coalesced;
    }
    EXPECT_EQ(coalesced_jobs, svc.totals().coalesced);
    EXPECT_GE(coalesced_jobs, 2u);
}

TEST(ProvingService, DeadlineCancelsQueuedJob)
{
    ServiceConfig cfg;
    cfg.jobGpus = 2;
    ProvingService svc(makeDgxA100(2), cfg);
    // Fill both devices, then submit a job whose deadline expires
    // while it waits in the queue.
    ASSERT_TRUE(svc.submit(spec(1, JobKind::NttForward, 14), 0).ok());
    JobSpec hopeless = spec(2);
    hopeless.deadlineSeconds = 1e-9;
    ASSERT_TRUE(svc.submit(hopeless, 0).ok());
    svc.drain();

    ASSERT_EQ(svc.outcomes().size(), 2u);
    const JobOutcome *cancelled = nullptr;
    for (const JobOutcome &out : svc.outcomes())
        if (out.id == 2)
            cancelled = &out;
    ASSERT_NE(cancelled, nullptr);
    EXPECT_EQ(cancelled->status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(cancelled->attempts, 0u);
    EXPECT_EQ(svc.totals().deadlineMissed, 1u);
    // The occupying job is unaffected.
    EXPECT_EQ(svc.totals().completed, 1u);
}

TEST(ProvingService, DeviceKillSurfacesAsStatusNeverSilently)
{
    ServiceChaos chaos;
    chaos.killDevices = {1};
    chaos.killAtSeconds = 0;
    ProvingService svc(makeDgxA100(4), ServiceConfig{}, chaos);
    for (uint64_t i = 1; i <= 8; ++i)
        ASSERT_TRUE(svc.submit(spec(i), 0).ok());
    svc.drain();

    // The killed device is quarantined for good.
    EXPECT_TRUE(svc.health().isLost(1));
    EXPECT_FALSE(svc.health().usable(1));

    // Every admitted job has a terminal outcome: completed jobs carry
    // verified results, failures carry a Status — nothing vanishes
    // and nothing corrupt sneaks through.
    ServiceCounters c = svc.totals();
    EXPECT_EQ(c.admitted, 8u);
    EXPECT_EQ(c.completed + c.failed + c.deadlineMissed, 8u);
    EXPECT_EQ(svc.corruptResults(), 0u);
    for (const JobOutcome &out : svc.outcomes()) {
        if (out.status.ok()) {
            EXPECT_TRUE(out.verified);
        }
    }
    EXPECT_EQ(c.completed, 8u) << "a single kill is recoverable";
}

TEST(ProvingService, RetryBackoffIsCappedAndJittered)
{
    const RetryPolicy p = ServiceConfig::jitteredRetryDefaults();
    EXPECT_GT(p.jitterFraction, 0.0);
    // The cap truncates the doubling well before the attempt limit
    // would: no service retry ever waits longer than the cap allows.
    const double worst =
        p.backoffSeconds(p.maxRetries) * (1.0 + p.jitterFraction / 2);
    EXPECT_LE(worst, p.backoffMaxSeconds * (1.0 + p.jitterFraction / 2));
    // Exchange-level retries are priced in retransmission time — far
    // below the job-level policy, so one transient fault cannot cost
    // multiples of a transform.
    const RetryPolicy x = ServiceConfig::exchangeRetryDefaults();
    EXPECT_LT(x.backoffMaxSeconds, p.backoffBaseSeconds * 2);
    EXPECT_GT(x.jitterFraction, 0.0);
}

TEST(ProvingService, ProofJobsResumeFromCheckpointsUnderChaos)
{
    ServiceChaos chaos;
    chaos.stageFailRate = 0.35;
    chaos.roundFailRate = 0.1;
    ProvingService svc(makeDgxA100(4), ServiceConfig{}, chaos);
    for (uint64_t i = 1; i <= 4; ++i)
        ASSERT_TRUE(svc.submit(spec(i, JobKind::Proof, 6), 0).ok());
    svc.drain();

    ServiceCounters c = svc.totals();
    EXPECT_EQ(c.admitted, 4u);
    // With a 35% per-stage interruption rate some attempt fails and
    // the service retries from the checkpoint (seeded: stable).
    EXPECT_GT(c.retried, 0u);
    EXPECT_EQ(c.completed + c.failed, 4u);
    EXPECT_EQ(svc.corruptResults(), 0u);
    for (const JobOutcome &out : svc.outcomes()) {
        if (out.status.ok()) {
            EXPECT_TRUE(out.verified);
        }
    }
}

TEST(ProvingService, IdenticalRunsAreBitIdentical)
{
    auto run = [] {
        ServiceChaos chaos;
        chaos.transientRate = 0.05;
        chaos.stragglerRate = 0.05;
        chaos.killDevices = {2};
        chaos.killAtSeconds = 1e-6;
        ProvingService svc(makeDgxA100(4), ServiceConfig{}, chaos);
        for (uint64_t i = 1; i <= 10; ++i)
            svc.submit(spec(i), i * 1e-7);
        svc.drain();
        return svc.outcomes();
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].status.code(), b[i].status.code());
        EXPECT_DOUBLE_EQ(a[i].finish, b[i].finish);
        EXPECT_EQ(a[i].attempts, b[i].attempts);
    }
}

TEST(ProvingService, ReportCarriesPerTenantCounters)
{
    ProvingService svc(makeDgxA100(2));
    ASSERT_TRUE(svc.submit(spec(1, JobKind::NttForward, 10, 3), 0).ok());
    ASSERT_TRUE(svc.submit(spec(2, JobKind::NttForward, 10, 5), 0).ok());
    svc.drain();

    SimReport rep = svc.report();
    ASSERT_GE(rep.serviceCounters().size(), 3u); // 2 tenants + total
    const std::string text = rep.toString();
    EXPECT_NE(text.find("tenant3"), std::string::npos);
    EXPECT_NE(text.find("tenant5"), std::string::npos);
    EXPECT_NE(text.find("submitted"), std::string::npos);
}

// ---------------------------------------------------------------------
// Load generators.
// ---------------------------------------------------------------------

TEST(ServiceJobIo, OutputChecksumsArePinned)
{
    // Output checksums of forward and inverse jobs, generated and
    // hashed the way the service does it, on every shard count. The
    // values were taken from the serial generator and hash that the
    // slot kernels replace, so a change to either formula fails here
    // even when the job and its reference change together.
    struct Pin
    {
        JobKind kind;
        unsigned logN;
        uint64_t checksum;
    };
    const Pin pins[] = {
        {JobKind::NttForward, 10, 0x5250044b60e786c9ULL},
        {JobKind::NttForward, 16, 0xc3c0d643e5806bbcULL},
        {JobKind::NttInverse, 10, 0x2ddabfda65577b8fULL},
        {JobKind::NttInverse, 16, 0xf76d9178261869e0ULL},
    };
    for (const Pin &pin : pins)
        for (unsigned gpus : {1u, 2u, 4u}) {
            SCOPED_TRACE("logN " + std::to_string(pin.logN) + " on " +
                         std::to_string(gpus) + " GPUs");
            UniNttConfig ec = UniNttConfig::allOn();
            ec.hostThreads = 2;
            UniNttEngine<Goldilocks> engine(makeDgxA100(gpus), ec);
            DistributedVector<Goldilocks> data = serviceJobInput(
                pin.logN, 0x5e41ce00ULL + pin.logN, gpus, 2,
                engine.kernels());
            if (pin.kind == JobKind::NttForward)
                engine.forward(data);
            else
                engine.inverse(data);
            EXPECT_EQ(checksumShardsPooled(data.chunks(), 2,
                                           engine.kernels()),
                      pin.checksum);
        }
}

template <typename F>
void
checkPooledChecksum(size_t shards, size_t len, unsigned lanes)
{
    SCOPED_TRACE(std::string(F::kName) + " " + std::to_string(shards) +
                 " x " + std::to_string(len) + " at " +
                 std::to_string(lanes) + " lanes");
    Rng rng(shards * 1000 + len);
    std::vector<std::vector<F>> v(shards, std::vector<F>(len));
    for (auto &shard : v)
        for (F &x : shard)
            x = F::fromU64(rng.next());
    for (IsaPath isa : availableIsaPaths())
        EXPECT_EQ(checksumShardsPooled(v, lanes, fieldKernels<F>(isa)),
                  checksumShards(v))
            << isaPathName(isa);
}

TEST(ServiceJobIo, PooledChecksumMatchesChecksumShards)
{
    // Shards below and (on their own) above kMinPooledSliceElems;
    // 4-byte BabyBear shards hold whole words, except a lone
    // odd-length one.
    for (unsigned lanes : {1u, 2u, 4u})
        for (size_t shards = 1; shards <= 8; ++shards) {
            for (size_t len : {size_t{1}, size_t{37}, size_t{70001}})
                checkPooledChecksum<Goldilocks>(shards, len, lanes);
            for (size_t len : {size_t{2}, size_t{38}, size_t{140002}})
                checkPooledChecksum<BabyBear>(shards, len, lanes);
        }
    for (size_t len : {size_t{1}, size_t{37}, size_t{140001}})
        checkPooledChecksum<BabyBear>(1, len, 2);
    checkPooledChecksum<Goldilocks>(0, 0, 2);
}

TEST(ServiceJobIo, SeededInputMatchesTheSerialFormula)
{
    for (unsigned gpus : {1u, 2u, 4u, 8u})
        for (unsigned lanes : {1u, 2u, 4u})
            for (IsaPath isa : availableIsaPaths()) {
                const uint64_t n = 1ULL << 17, seed = 0x5eedULL + gpus;
                const auto data = DistributedVector<Goldilocks>::seeded(
                    n, gpus, seed, lanes, fieldKernels<Goldilocks>(isa));
                std::vector<Goldilocks> want(n);
                for (uint64_t i = 0; i < n; ++i)
                    want[i] = Goldilocks::fromU64(mix64(seed ^ i));
                ASSERT_EQ(data.numGpus(), gpus);
                ASSERT_EQ(data.toGlobal(), want)
                    << gpus << " GPUs, " << lanes << " lanes, "
                    << isaPathName(isa);
            }
}

TEST(LoadGen, OpenLoopAccountingConserves)
{
    LoadScenario scn;
    scn.offeredLoad = 0.6;
    scn.jobsTarget = 60;
    scn.tenants = LoadScenario::defaultTenants(10);
    LoadResult r = runLoadScenario(makeDgxA100(4), ServiceConfig{}, scn);

    const ServiceCounters &c = r.totals;
    EXPECT_EQ(c.submitted, 60u);
    EXPECT_EQ(c.submitted, c.admitted + c.shed + c.quotaRejected);
    EXPECT_EQ(c.admitted, c.completed + c.failed + c.deadlineMissed);
    EXPECT_EQ(r.corruptResults, 0u);
    EXPECT_EQ(r.completed, c.completed);
    EXPECT_GT(r.throughputRate, 0.0);
    EXPECT_GE(r.p99, r.p50);
    ASSERT_EQ(r.tenants.size(), 3u);
    EXPECT_NE(r.find("premium"), nullptr);
    EXPECT_EQ(r.find("no-such-tenant"), nullptr);
}

TEST(LoadGen, ClosedLoopClientsChainThroughCompletions)
{
    LoadScenario scn;
    scn.closedLoop = true;
    scn.clientsPerTenant = 2;
    scn.durationSeconds = 3e-4;
    scn.tenants = LoadScenario::defaultTenants(10);
    LoadResult r = runLoadScenario(makeDgxA100(4), ServiceConfig{}, scn);

    // Each client must complete several round trips inside the
    // horizon, not just its first submission.
    EXPECT_GT(r.completed, 3u * 2u * 2u);
    EXPECT_EQ(r.totals.admitted,
              r.totals.completed + r.totals.failed +
                  r.totals.deadlineMissed);
    EXPECT_EQ(r.corruptResults, 0u);
}

TEST(LoadGen, SameScenarioSameNumbers)
{
    LoadScenario scn;
    scn.offeredLoad = 0.5;
    scn.jobsTarget = 40;
    scn.tenants = LoadScenario::defaultTenants(10);
    ServiceChaos chaos;
    chaos.transientRate = 0.02;
    LoadResult a =
        runLoadScenario(makeDgxA100(4), ServiceConfig{}, scn, chaos);
    LoadResult b =
        runLoadScenario(makeDgxA100(4), ServiceConfig{}, scn, chaos);
    EXPECT_DOUBLE_EQ(a.p99, b.p99);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.completed, b.completed);
}
