/**
 * @file
 * Helpers shared by the workloads and the layer probes (driver-internal).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <string>
#include <vector>

#include "field/goldilocks.hh"
#include "service/service.hh"
#include "unintt/engine.hh"
#include "util/checksum.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

using F = unintt::Goldilocks;

/** Seed of one derived input stream: the run seed mixed with a salt. */
inline uint64_t
subSeed(uint64_t seed, uint64_t salt)
{
    return unintt::mix64(seed * 0x9e3779b97f4a7c15ULL + unintt::mix64(salt));
}

inline std::vector<F>
randomVector(size_t n, uint64_t seed)
{
    unintt::Rng rng(seed);
    std::vector<F> v(n);
    for (auto &x : v)
        x = F::fromU64(rng.next());
    return v;
}

/** The engine configuration every workload uses: defaults, tuning DB
 * off, two host threads. */
inline unintt::UniNttConfig
benchConfig()
{
    unintt::UniNttConfig c = unintt::UniNttConfig::allOn();
    c.useTuneDb = false;
    c.hostThreads = kHostThreads;
    return c;
}

/** Time one call into a layer, as a span when the op is traced. */
template <typename Fn>
double
timed(Tracer &tr, bool traced, const char *span, Fn &&fn)
{
    const int id = traced ? tr.begin(span) : -1;
    const double t0 = wallNow();
    fn();
    const double dt = wallNow() - t0;
    tr.end(id);
    return dt;
}

/** Snapshot of the process-wide cache counters. */
struct CacheSnapshot
{
    unintt::CacheCounters plan, sched, slab;

    static CacheSnapshot take();
};

/** Hit ratios of the plan/schedule/slab caches between two snapshots
 * (a cache with no lookups in between records nothing). */
void recordCacheRatios(const CacheSnapshot &a, const CacheSnapshot &b,
                       RunResult &res, const std::string &src);

/** Per-transform engine counters, computed work and simulated time of
 * one forward/inverse pair. */
void recordEngineLayers(const unintt::UniNttEngine<F> &e, unsigned logN,
                        const unintt::SimReport &fwd,
                        const unintt::SimReport &inv, RunResult &res,
                        const std::string &src);

/**
 * Gate hooks that turn proveCheckpointed's stage and FRI-round
 * boundaries into stage spans and round intervals.
 */
struct ProofSpans
{
    Tracer &tr;
    int stage = -1;
    std::string roundStage;
    double roundStart = -1;
    unsigned rounds = 0;
    std::vector<double> roundS;

    unintt::Status
    onStage(const std::string &name)
    {
        tr.end(stage);
        std::string metric = "zkp.stage." + name;
        std::replace(metric.begin(), metric.end(), '-', '_');
        stage = tr.begin(metric);
        roundStart = -1;
        return unintt::Status();
    }

    unintt::Status
    onRound(const std::string &stage_name)
    {
        const double now = wallNow();
        if (roundStart >= 0 && stage_name == roundStage)
            roundS.push_back(now - roundStart);
        roundStage = stage_name;
        roundStart = now;
        rounds++;
        return unintt::Status();
    }

    void
    finish()
    {
        tr.end(stage);
        stage = -1;
    }
};

/** Stage names proveCheckpointed reports, as metric suffixes. */
inline const std::vector<std::string> &
proofStages()
{
    static const std::vector<std::string> s = {
        "trace_lde", "trace_commit",    "quotient", "quotient_commit",
        "boundary",  "boundary_commit", "queries"};
    return s;
}

/** One job of the service-mix arrival trace. */
struct Arrival
{
    unintt::JobSpec spec;
    double at = 0;
};

/** The service configuration of service-mix (and its probe). */
unintt::ServiceConfig serviceConfig();

/** The seeded open-loop arrival trace of @p jobs jobs. */
std::vector<Arrival> makeArrivals(const unintt::ProvingService &svc,
                                  uint64_t seed, unsigned jobs);

/** Virtual-time facts of one replay of a trace. */
struct RoundFacts
{
    std::vector<double> latencyUs;
    std::vector<double> waitUs;
    double admittedRatio = 0;
    double coalescedRatio = 0;
    double fleetUtil = 0;
};

/**
 * Replay @p trace on a fresh service, checking every job (refusals,
 * failures and wrong results count as failed) and the service's
 * accounting, and (when @p expect is given) that the virtual-time
 * latencies repeat @p expect's exactly. Per-job host times (runUntil +
 * submit) are appended to @p job_s when non-null; the drain time is
 * returned.
 */
double serviceRound(const std::vector<Arrival> &trace, Tracer &tr,
                    bool traced, unsigned &wrong, RunResult &res,
                    std::vector<double> *job_s, const RoundFacts *expect,
                    RoundFacts &facts);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
