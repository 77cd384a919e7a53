/**
 * @file
 * Shared vocabulary of the multi-tenant proving service: job
 * descriptions, SLA classes, tenant quotas, and the service
 * configuration. The service itself lives in service.hh; this header
 * exists so the admission queue, the placement policy and the load
 * generators can speak the same types without pulling in the whole
 * scheduler.
 */

#ifndef UNINTT_SERVICE_TYPES_HH
#define UNINTT_SERVICE_TYPES_HH

#include <cstdint>
#include <limits>

#include "sim/fault.hh"
#include "util/status.hh"

namespace unintt {

/** What a job asks the fleet to compute. */
enum class JobKind {
    /** One forward NTT of 2^logN Goldilocks elements. */
    NttForward,
    /** One inverse NTT of 2^logN Goldilocks elements. */
    NttInverse,
    /** One checkpointed STARK proof with a 2^logN-row trace. */
    Proof,
};

/**
 * Service class of a tenant's jobs. Higher classes are scheduled
 * first and shed last; the numeric values index per-class arrays and
 * order classes by priority.
 */
enum class SlaClass : unsigned {
    /** Throughput-oriented; first to be shed under overload. */
    Batch = 0,
    /** Default interactive class. */
    Standard = 1,
    /** Latency-sensitive; shed only when the queue is truly full. */
    Premium = 2,
};

/** Number of SLA classes (array dimension). */
constexpr unsigned kNumSlaClasses = 3;

/** Printable name of an SLA class ("premium" style). */
const char *toString(SlaClass sla);

/** One unit of work submitted to the service. */
struct JobSpec
{
    /** Caller-assigned unique id (0 is invalid). */
    uint64_t id = 0;
    /** Tenant the job belongs to (dense small integers). */
    unsigned tenant = 0;
    SlaClass sla = SlaClass::Standard;
    JobKind kind = JobKind::NttForward;
    /** log2 transform size, or log2 trace length for proofs. */
    unsigned logN = 12;
    /**
     * Completion deadline relative to submission, in simulated
     * seconds; 0 means no deadline. The watchdog cancels queued jobs
     * at the deadline and discards results that finish past it.
     */
    double deadlineSeconds = 0;
    /** Seed of the job's input data (results are seed-deterministic). */
    uint64_t seed = 1;
};

/** Final fate of one admitted job. */
struct JobOutcome
{
    uint64_t id = 0;
    unsigned tenant = 0;
    SlaClass sla = SlaClass::Batch;
    JobKind kind = JobKind::NttForward;
    /** OK, or why the job ultimately failed (last error). */
    Status status;
    /** Submission time (simulated seconds). */
    double arrival = 0;
    /** First execution start (simulated seconds; = finish if never ran). */
    double started = 0;
    /** Completion/cancellation time (simulated seconds). */
    double finish = 0;
    /** Execution attempts consumed (0 if cancelled while queued). */
    unsigned attempts = 0;
    /** Ran at least once on fewer GPUs than requested. */
    bool degraded = false;
    /** The transform rode a coalesced batched launch. */
    bool coalesced = false;
    /** Output checksum matched the fault-free reference. */
    bool verified = false;

    /** End-to-end latency in simulated seconds. */
    double latency() const { return finish - arrival; }
};

/** Per-tenant admission limits. */
struct TenantQuota
{
    /** Jobs a tenant may have waiting in the queue. */
    unsigned maxQueued = 16;
    /** Jobs a tenant may have running concurrently. */
    unsigned maxInFlight = 4;
};

/** Configuration of the proving service. */
struct ServiceConfig
{
    /** GPUs a job requests (power of two); degraded runs use fewer. */
    unsigned jobGpus = 2;
    /** Total queue capacity across all classes. */
    unsigned queueCapacity = 64;
    /**
     * Class-aware load shedding: a class-c job is shed once the queue
     * holds at least shedFraction[c] * queueCapacity jobs. Premium at
     * 1.0 is only shed by a literally full queue.
     */
    double shedFraction[kNumSlaClasses] = {0.5, 0.8, 1.0};
    /** Per-tenant admission limits (uniform across tenants). */
    TenantQuota quota;
    /** Execution attempts per job (1 = no retries). */
    unsigned maxAttempts = 3;
    /**
     * Service-level retry backoff: capped exponential with jitter,
     * salted by the job id so concurrent jobs decorrelate.
     */
    RetryPolicy retry = jitteredRetryDefaults();
    /**
     * Exchange-level retry backoff the resilient executor uses for
     * transient fabric faults. Transmission-scale: a retransmission
     * delay must be commensurate with the exchange it repeats
     * (microseconds), not with a job retry (tens of microseconds) —
     * one transient fault must not cost multiples of the transform.
     */
    RetryPolicy exchangeRetry = exchangeRetryDefaults();
    /** Halve the GPU request when retrying after a device loss. */
    bool allowDegraded = true;
    /** Max same-shape transforms coalesced into one batched launch. */
    unsigned coalesceMax = 4;
    /** Check every result against a fault-free reference. */
    bool verifyOutputs = true;
    /**
     * Route every transform through the resilient executor (spot
     * checks, retry machinery) even when no chaos is configured, and
     * skip coalescing. Keeps the executor uniform so fault-free and
     * chaos runs of the same scenario differ only in the injected
     * faults — required for honest SLA (p99 ratio) comparisons.
     */
    bool hardenedOnly = false;
    /** Spot checks the resilient engine runs per transform. */
    unsigned spotChecks = 2;
    /** Host threads for functional execution (0 = pool default). */
    unsigned hostThreads = 0;
    /** Seed of the service's derived randomness (chaos gates, jitter). */
    uint64_t seed = 0x5e41ce;

    /** No deadline sentinel. */
    static constexpr double kNoDeadline =
        std::numeric_limits<double>::infinity();

    /** The service-flavoured retry policy: capped, jittered. */
    static RetryPolicy
    jitteredRetryDefaults()
    {
        RetryPolicy p;
        p.maxRetries = 4;
        p.backoffBaseSeconds = 50e-6;
        p.backoffMaxSeconds = 2e-3;
        p.jitterFraction = 0.5;
        return p;
    }

    /** Exchange-scale backoff: capped and jittered like the job
     * policy, but priced in retransmission time. */
    static RetryPolicy
    exchangeRetryDefaults()
    {
        RetryPolicy p;
        p.maxRetries = 4;
        p.backoffBaseSeconds = 2e-6;
        p.backoffMaxSeconds = 50e-6;
        p.jitterFraction = 0.5;
        return p;
    }
};

} // namespace unintt

#endif // UNINTT_SERVICE_TYPES_HH
