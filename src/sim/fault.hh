/**
 * @file
 * Seeded, deterministic fault injection for the simulated machine.
 *
 * A FaultModel describes an unreliable fabric: per-collective rates for
 * transient exchange failures, payload bit-flips and straggler
 * slowdowns, plus a schedule of permanent device dropouts. A
 * FaultInjector draws from the model with its own xoshiro stream, so a
 * given seed reproduces the exact same event sequence — injected
 * events, counters and priced recovery times are bit-identical across
 * runs, which is what makes fault campaigns regression-testable.
 *
 * Injection is per collective: every exchange-shaped operation (an
 * engine butterfly exchange) consults the injector once and receives
 * the full fate of that operation — how many transmission attempts
 * failed in transit, whether the payload arrived corrupted, whether a
 * straggler stretched it, or whether a device died before it
 * completed. The consumer decides how to respond (retry,
 * retransmit, re-plan); the injector only decides what the hardware
 * did.
 *
 * SEED-DERIVATION CONTRACT (the one place it is written down).
 * Three kinds of randomness derive from FaultModel::seed, and they must
 * never interfere:
 *
 *  1. Exchange draws (nextExchange / retransmitCorrupted) consume the
 *     injector's sequential xoshiro stream seeded with model.seed.
 *     They are ORDER-SENSITIVE: a replay reproduces them iff the caller
 *     issues the identical call sequence. reset() rewinds this stream
 *     (and the counters and the dropout schedule) to reproduce a
 *     campaign.
 *  2. Compute draws (computeFault) are STATELESS hashes of
 *     (model.seed, device, step, attempt) — they never touch the
 *     xoshiro stream, so adding, removing or reordering compute-side
 *     checks cannot shift the exchange event sequence, and two replays
 *     of the same schedule see the same compute faults regardless of
 *     dispatch order (linear vs DAG waves). Only the injected()
 *     counters record that a draw fired; reset() clears them.
 *  3. Service-level job retries decorrelate their backoff through
 *     RetryPolicy::backoffSeconds(attempt, salt) with a per-job salt —
 *     they re-salt DELAYS only and never reseed an injector, so a
 *     chaos replay of a service run replays the exact same injected
 *     fault sequence per transform.
 */

#ifndef UNINTT_SIM_FAULT_HH
#define UNINTT_SIM_FAULT_HH

#include <cstdint>
#include <vector>

#include "sim/kernel_stats.hh"
#include "util/random.hh"

namespace unintt {

/** A scheduled permanent device loss. */
struct DeviceDropout
{
    /** Device that dies. */
    unsigned gpu = 0;
    /** Global exchange index at which it dies (0 = first exchange). */
    uint64_t atExchange = 0;
};

/** Bounded-exponential-backoff retry policy for transient faults. */
struct RetryPolicy
{
    /** Maximum retransmissions before an exchange is abandoned. */
    unsigned maxRetries = 4;
    /** Backoff before the first retransmission; doubles per attempt. */
    double backoffBaseSeconds = 100e-6;
    /**
     * Ceiling of the exponential doubling: no single backoff delay
     * exceeds this, however many attempts have failed. Without a cap
     * the doubling alone can exceed any job deadline a service layer
     * promises, so the cap — not the attempt count — is what bounds
     * the worst-case recovery latency of one exchange.
     */
    double backoffMaxSeconds = 10e-3;
    /**
     * Jitter spread as a fraction of the capped delay: the delay is
     * scaled by a factor drawn uniformly from
     * [1 - jitterFraction/2, 1 + jitterFraction/2], derived
     * deterministically from @p salt so a seeded run replays exactly.
     * 0 (the default) keeps the classic deterministic doubling; a
     * service retrying many jobs against the same contended fleet sets
     * it to decorrelate their retry storms.
     */
    double jitterFraction = 0.0;

    /** Backoff delay preceding retransmission number @p attempt,
     * capped at backoffMaxSeconds (jitter-free form). */
    double
    backoffSeconds(unsigned attempt) const
    {
        // Clamp the exponent before shifting: past ~2^40 the cap has
        // long since won, and a shift by >= 63 would be undefined.
        const unsigned exp = attempt < 40 ? attempt : 40;
        const double raw =
            backoffBaseSeconds * static_cast<double>(1ULL << exp);
        return raw < backoffMaxSeconds ? raw : backoffMaxSeconds;
    }

    /** Capped backoff with deterministic jitter: @p salt (e.g. a job
     * id) decorrelates concurrent retry sequences. */
    double backoffSeconds(unsigned attempt, uint64_t salt) const;
};

/** Description of an unreliable machine. All rates default to zero. */
struct FaultModel
{
    /** Seed of the injector's random stream. */
    uint64_t seed = 0xfa017u;
    /** P(one transmission attempt of an exchange fails in transit). */
    double transientExchangeRate = 0.0;
    /** P(an exchange's payload arrives with a flipped bit). */
    double bitFlipRate = 0.0;
    /**
     * P(one compute-step attempt writes a flipped bit into its output
     * slice) — silent data corruption inside the arithmetic units, as
     * opposed to bitFlipRate's corruption on the wire. Drawn through
     * the stateless computeFault() hash, never the exchange stream
     * (see the seed-derivation contract above).
     */
    double computeBitFlipRate = 0.0;
    /** P(an exchange is stretched by a straggling device). */
    double stragglerRate = 0.0;
    /** Slowdown factor a straggler applies to the exchange. */
    double stragglerSlowdown = 4.0;
    /** Scheduled permanent dropouts, matched by exchange index. */
    std::vector<DeviceDropout> dropouts;

    /** A perfectly reliable machine. */
    static FaultModel none() { return FaultModel{}; }
};

/** The fate of one collective exchange, decided by the injector. */
struct ExchangeOutcome
{
    /** Transmission attempts that failed in transit before success. */
    unsigned transientFailures = 0;
    /** All allowed attempts failed; the exchange never completed. */
    bool exhausted = false;
    /** The (first successful) transmission arrived corrupted. */
    bool corrupted = false;
    /** Raw 64-bit draw selecting which payload bit flipped. */
    uint64_t corruptBit = 0;
    /** 1.0, or the straggler slowdown applied to this exchange. */
    double stragglerFactor = 1.0;
    /** Device that died before this exchange (-1: none). */
    int lostGpu = -1;
};

/** The fate of one compute-step attempt, decided by the injector. */
struct ComputeFaultOutcome
{
    /** The attempt's output slice received a flipped bit. */
    bool corrupted = false;
    /** Raw 64-bit draw selecting which output word flips. */
    uint64_t corruptWord = 0;
    /** Raw 64-bit draw selecting which bit of that word flips. */
    uint64_t corruptBit = 0;
};

/** Running totals of what an injector has inflicted. */
struct InjectedFaults
{
    uint64_t exchanges = 0;
    uint64_t transients = 0;
    /** First-transmission payload corruptions (the wire path). */
    uint64_t exchangeCorruptions = 0;
    /** Corruptions injected into checksum-forced retransmissions. */
    uint64_t retransmitCorruptions = 0;
    /** Bit flips injected inside compute-step outputs (the SDC path). */
    uint64_t computeCorruptions = 0;
    uint64_t stragglers = 0;
    uint64_t dropouts = 0;

    /** Every corruption regardless of path. */
    uint64_t
    corruptions() const
    {
        return exchangeCorruptions + retransmitCorruptions +
               computeCorruptions;
    }
};

/** Deterministic source of fault events drawn from a FaultModel. */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultModel model);

    /** The model this injector draws from. */
    const FaultModel &model() const { return model_; }

    /**
     * Decide the fate of the next exchange. @p max_attempts is the
     * retransmission bound: when the initial transmission and all
     * max_attempts retransmissions fail, the outcome is exhausted and
     * the caller must abandon the exchange.
     */
    ExchangeOutcome nextExchange(unsigned max_attempts);

    /**
     * Corruption draw for the retransmission that follows a detected
     * corruption (checksums force a fresh transmission, which the model
     * may corrupt again).
     */
    bool retransmitCorrupted();

    /**
     * Decide the fate of compute-step attempt @p attempt of schedule
     * step @p step on device @p device. Stateless per the contract in
     * the header comment: the result is a pure hash of
     * (model.seed, device, step, attempt), so the exchange stream is
     * untouched and any dispatch order replays identically. Only the
     * injected() totals are mutated (when the draw fires).
     */
    ComputeFaultOutcome computeFault(unsigned device, uint64_t step,
                                     unsigned attempt);

    /** Totals of everything injected so far. */
    const InjectedFaults &injected() const { return injected_; }

    /** Exchanges decided so far (the dropout-schedule clock). */
    uint64_t exchangesSeen() const { return exchangeIndex_; }

    /** Rewind to the initial seeded state (reproduce a campaign). */
    void reset();

  private:
    FaultModel model_;
    Rng rng_;
    uint64_t exchangeIndex_ = 0;
    std::vector<bool> dropoutFired_;
    InjectedFaults injected_;
};

} // namespace unintt

#endif // UNINTT_SIM_FAULT_HH
