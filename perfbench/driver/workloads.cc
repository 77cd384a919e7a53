#include "workloads.hh"

#include "common.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "field/goldilocks.hh"
#include "ntt/radix2.hh"
#include "service/service.hh"
#include "sim/fault.hh"
#include "sim/multi_gpu.hh"
#include "unintt/engine.hh"
#include "util/bitops.hh"
#include "util/checksum.hh"
#include "util/random.hh"
#include "zkp/checkpoint.hh"
#include "zkp/stark.hh"

using namespace unintt;

namespace perfbench {

namespace {

/** Cold set-ups per run; the reported set-up time is their median. */
constexpr unsigned kSetupReps = 3;
/** The service sets up in milliseconds, so it takes more. */
constexpr unsigned kServiceSetupReps = 7;

bool
sameAs(const DistributedVector<F> &d, const std::vector<F> &x)
{
    const size_t c = d.chunkSize();
    for (unsigned g = 0; g < d.numGpus(); ++g)
        if (!std::equal(d.chunk(g).begin(), d.chunk(g).end(),
                        x.begin() + g * c))
            return false;
    return d.size() == x.size();
}

/** Self-test hook: flip one output bit while injections remain. */
bool
maybeCorrupt(unsigned &remaining, DistributedVector<F> &d)
{
    if (remaining == 0)
        return false;
    --remaining;
    d.chunk(0)[0] = F::fromU64(d.chunk(0)[0].value() ^ 1);
    return true;
}

double
hitRatio(const CacheCounters &a, const CacheCounters &b)
{
    const double hits = static_cast<double>(b.hits - a.hits);
    const double total = hits + static_cast<double>(b.misses - a.misses);
    return total > 0 ? hits / total : -1;
}

} // namespace

CacheSnapshot
CacheSnapshot::take()
{
    return {PlanCache::global().counters(),
            ScheduleCache::global().counters(),
            TwiddleSlabCache<F>::global().counters()};
}

void
recordCacheRatios(const CacheSnapshot &a, const CacheSnapshot &b,
                  RunResult &res, const std::string &src)
{
    const double plan = hitRatio(a.plan, b.plan);
    const double sched = hitRatio(a.sched, b.sched);
    const double slab = hitRatio(a.slab, b.slab);
    if (plan >= 0)
        res.layer("unintt.plan_hit_ratio", plan, src);
    if (sched >= 0)
        res.layer("unintt.schedule_hit_ratio", sched, src);
    if (slab >= 0)
        res.layer("unintt.twiddle_slab_hit_ratio", slab, src);
}

void
recordEngineLayers(const UniNttEngine<F> &e, unsigned logN,
                   const SimReport &fwd, const SimReport &inv,
                   RunResult &res, const std::string &src)
{
    const HostExecStats &a = fwd.hostExecStats();
    const HostExecStats &b = inv.hostExecStats();
    auto per = [](uint64_t x, uint64_t y) { return (x + y) / 2.0; };
    res.layer("unintt.fused_groups", per(a.fusedGroups, b.fusedGroups), src);
    res.layer("unintt.overlap_waves", per(a.overlapWaves, b.overlapWaves),
              src);
    res.layer("unintt.exchange_chunks",
              per(a.exchangeChunks, b.exchangeChunks), src);
    res.layer("unintt.isa_dispatches",
              per(a.isaDispatches, b.isaDispatches), src);

    // Work computed from the compiled schedules (per-GPU counters).
    double bfly = 0, bytes = 0;
    for (NttDirection dir : {NttDirection::Forward, NttDirection::Inverse})
        for (const ScheduleStep &st : e.schedule(logN, dir)->steps) {
            bfly += static_cast<double>(st.stats.butterflies);
            bytes += static_cast<double>(st.stats.globalBytes());
        }
    const double gpus = e.system().numGpus;
    res.layer("unintt.butterflies", bfly * gpus / 2, "computed");
    res.layer("unintt.pass_bytes", bytes * gpus / 2, "computed");

    double hidden = 0;
    for (const SimPhase &p : fwd.phases())
        hidden += p.hiddenSeconds;
    res.layer("sim.transform_sim_us", fwd.totalSeconds() * 1e6, src);
    res.layer("sim.kernel_sim_us", fwd.kernelSeconds() * 1e6, src);
    res.layer("sim.comm_sim_us", fwd.commSeconds() * 1e6, src);
    res.layer("sim.hidden_sim_us", hidden * 1e6, src);
}

void
RunResult::check(bool ok, const std::string &what)
{
    attempted++;
    if (ok)
        return;
    failed++;
    if (failures.size() < 16)
        failures.push_back(what);
}

void
RunResult::layer(const std::string &name, double v, const std::string &src)
{
    if (layers.count(name))
        return;
    layers[name] = v;
    layerSource[name] = src;
}

void
clearHostCaches()
{
    PlanCache::global().clear();
    ScheduleCache::global().clear();
    TwiddleCache<F>::global().clear();
    TwiddleSlabCache<F>::global().clear();
    AbftCoefficientCache<F>::global().clear();
}

// ---------------------------------------------------------------------
// ntt-large: 2^24 plain round trips on four simulated GPUs.
// ---------------------------------------------------------------------

void
runNttLarge(const RunSpec &spec, Tracer &tr, RunResult &res)
{
    constexpr unsigned kLogN = 24;
    constexpr unsigned kGpus = 4;
    res.opName = "one 2^24 round trip (forward + inverse)";
    const MultiGpuSystem sys = makeDgxA100(kGpus);
    const std::vector<F> x = randomVector(size_t{1} << kLogN,
                                          subSeed(spec.seed, 1));
    DistributedVector<F> data = DistributedVector<F>::fromGlobal(x, kGpus);
    unsigned wrong = spec.injectWrong;

    auto checkRoundTrip = [&](bool sim_ok, const char *what) {
        const bool corrupted = maybeCorrupt(wrong, data);
        res.check(sameAs(data, x) && sim_ok, what);
        if (corrupted)
            data = DistributedVector<F>::fromGlobal(x, kGpus);
    };

    std::optional<UniNttEngine<F>> engine;
    for (unsigned k = 0; k < kSetupReps; ++k) {
        clearHostCaches();
        const double t0 = wallNow();
        engine.emplace(sys, benchConfig());
        engine->forward(data);
        engine->inverse(data);
        res.setupS.push_back(wallNow() - t0);
        checkRoundTrip(true, "set-up round trip differs from its input");
    }

    const CacheSnapshot before = CacheSnapshot::take();
    SimReport firstFwd, firstInv;
    double simUs = -1;
    const double cpu0 = cpuNow();
    const double w0 = wallNow();
    for (uint64_t rt = 0; rt < 2 || wallNow() - w0 < spec.seconds; ++rt) {
        const bool traced = tr.enabled() && rt % 2 == 0;
        // Each round trip transforms a freshly allocated vector, as a
        // prover transforming new polynomials would.
        data = DistributedVector<F>::fromGlobal(x, kGpus);
        SimReport fr, ir;
        const int op = traced ? tr.begin("op.round_trip") : -1;
        const double tf = timed(tr, traced, "unintt.forward",
                                [&] { fr = engine->forward(data); });
        const double ti = timed(tr, traced, "unintt.inverse",
                                [&] { ir = engine->inverse(data); });
        tr.end(op);
        (traced ? res.tracedOpS : res.opS).push_back(tf + ti);
        res.samples["transform_ms"].push_back(tf * 1e3);
        res.samples["transform_ms"].push_back(ti * 1e3);
        res.loopWallS += tf + ti;
        res.loopOps++;
        if (rt == 0) {
            firstFwd = fr;
            firstInv = ir;
            simUs = fr.totalSeconds() * 1e6;
        }
        checkRoundTrip(fr.totalSeconds() * 1e6 == simUs,
                       "round trip differs from its input, or its "
                       "simulated time changed");
    }
    const double elapsed = wallNow() - w0;
    res.layer("util.cpu_util",
              (cpuNow() - cpu0) / (elapsed * kHostThreads), "loop");
    const CacheSnapshot after = CacheSnapshot::take();

    // One forward per run against the radix-2 oracle. The engine leaves
    // the output in bit-reversed order: slot i holds X[bitrev(i)].
    {
        std::vector<F> y = x;
        nttForwardInPlace(y);
        engine->forward(data);
        maybeCorrupt(wrong, data);
        bool ok = true;
        const size_t c = data.chunkSize();
        for (unsigned g = 0; g < kGpus && ok; ++g)
            for (size_t j = 0; j < c; ++j)
                if (data.chunk(g)[j] != y[bitReverse(g * c + j, kLogN)]) {
                    ok = false;
                    break;
                }
        res.check(ok, "forward differs from the radix-2 oracle");
    }

    res.extra["melem_per_s"] =
        2.0 * res.loopOps * static_cast<double>(size_t{1} << kLogN) /
        res.loopWallS / 1e6;
    res.extra["sim_transform_us"] = simUs;
    res.deterministic["sim_transform_us"] = simUs;
    res.deterministic["fused_groups"] =
        firstFwd.hostExecStats().fusedGroups;
    res.deterministic["exchange_chunks"] =
        firstFwd.hostExecStats().exchangeChunks;

    if (tr.enabled()) {
        res.layer("unintt.forward_ms",
                  median(tr.durations("unintt.forward")) * 1e3, "loop");
        res.layer("unintt.inverse_ms",
                  median(tr.durations("unintt.inverse")) * 1e3, "loop");
        recordCacheRatios(before, after, res, "loop");
        recordEngineLayers(*engine, kLogN, firstFwd, firstInv, res, "loop");
        ProbeShape shape;
        shape.logN = kLogN;
        shape.gpus = kGpus;
        shape.compileLogNs = {kLogN};
        runLayerProbes(shape, spec.seed, tr, res);
    }
}

// ---------------------------------------------------------------------
// ntt-hardened: 2^22 resilient round trips under a seeded fault model.
// ---------------------------------------------------------------------

namespace {

/**
 * The fault model of transform @p op: rates high enough that a typical
 * transform retries a transient, catches a wire flip and recomputes a
 * tile, low enough that the retry and recompute budgets hold.
 */
FaultModel
hardenedFaults(uint64_t seed, uint64_t op)
{
    FaultModel m;
    m.seed = subSeed(seed, 1000 + op);
    m.transientExchangeRate = 0.1;
    m.bitFlipRate = 0.1;
    m.computeBitFlipRate = 0.05;
    return m;
}

/**
 * The default ResilienceConfig with larger recovery budgets. At the
 * rates above, the default 4 retransmissions and 2 tile recomputes run
 * out about once in 3000 transforms (5 consecutive transient failures
 * of one exchange, or 3 consecutive flips of an inverse-side tile),
 * which the engine reports as a clean TRANSIENT_FAULT or
 * DATA_CORRUPTION. The workload measures recovery, not refusal, so it
 * doubles both budgets: a transform then fails about once in a million,
 * and every other setting stays at its default.
 */
ResilienceConfig
hardenedResilience()
{
    ResilienceConfig rc;
    rc.retry.maxRetries = 8;
    rc.abftMaxTileRetries = 4;
    return rc;
}

/** Transforms whose fault counters feed the (deterministic) counts. */
constexpr uint64_t kCountedTransforms = 8;

} // namespace

void
runNttHardened(const RunSpec &spec, Tracer &tr, RunResult &res)
{
    constexpr unsigned kLogN = 22;
    constexpr unsigned kGpus = 4;
    res.opName = "one 2^22 resilient round trip (forward + inverse)";
    const MultiGpuSystem sys = makeDgxA100(kGpus);
    const std::vector<F> x = randomVector(size_t{1} << kLogN,
                                          subSeed(spec.seed, 2));
    // Every resilient output must equal the plain engine's bytes.
    std::vector<F> ref;
    {
        UniNttEngine<F> plain(sys, benchConfig());
        auto d = DistributedVector<F>::fromGlobal(x, kGpus);
        plain.forward(d);
        ref = d.toGlobal();
    }
    unsigned wrong = spec.injectWrong;
    const ResilienceConfig rc = hardenedResilience();

    FaultStats counted;
    uint64_t countedInjected = 0;
    std::vector<double> simUs;

    // One resilient transform from @p in, checked against @p expect and
    // the injected == caught + escalated ledger. Returns its host time.
    auto transform = [&](const UniNttEngine<F> &e, NttDirection dir,
                         DistributedVector<F> &d, const std::vector<F> &in,
                         const std::vector<F> &expect, uint64_t op,
                         bool traced) {
        d = DistributedVector<F>::fromGlobal(in, kGpus); // fresh buffers
        FaultInjector inj(hardenedFaults(spec.seed, op));
        std::optional<Result<SimReport>> r;
        const bool fwd = dir == NttDirection::Forward;
        const double dt = timed(
            tr, traced,
            fwd ? "unintt.forward_resilient" : "unintt.inverse_resilient",
            [&] {
                r.emplace(fwd ? e.forwardResilient(d, inj, rc)
                              : e.inverseResilient(d, inj, rc));
            });
        if (!r->ok()) {
            res.check(false, "resilient transform failed: " +
                                 r->status().toString());
            return dt;
        }
        const FaultStats &fs = r->value().faultStats();
        const InjectedFaults &in_f = inj.injected();
        maybeCorrupt(wrong, d);
        const bool ledger =
            in_f.computeCorruptions == fs.abftCatches + fs.abftEscalations &&
            in_f.exchangeCorruptions + in_f.retransmitCorruptions ==
                fs.corruptionsDetected;
        res.check(d.toGlobal() == expect && ledger,
                  ledger ? "resilient output differs from the plain engine"
                         : "fault ledger does not balance");
        if (fwd)
            simUs.push_back(r->value().totalSeconds() * 1e6);
        if (op < kCountedTransforms) {
            counted += fs;
            countedInjected += in_f.transients + in_f.corruptions();
        }
        return dt;
    };

    std::optional<UniNttEngine<F>> engine;
    DistributedVector<F> data = DistributedVector<F>::fromGlobal(x, kGpus);
    for (unsigned k = 0; k < kSetupReps; ++k) {
        clearHostCaches();
        const double t0 = wallNow();
        engine.emplace(sys, benchConfig());
        const uint64_t op = (1ULL << 32) + 2 * k; // outside the loop's ops
        transform(*engine, NttDirection::Forward, data, x, ref, op, false);
        transform(*engine, NttDirection::Inverse, data, ref, x, op + 1,
                  false);
        res.setupS.push_back(wallNow() - t0);
    }
    simUs.clear();

    const double cpu0 = cpuNow();
    const double w0 = wallNow();
    for (uint64_t rt = 0;
         2 * rt < kCountedTransforms || wallNow() - w0 < spec.seconds;
         ++rt) {
        const bool traced = tr.enabled() && rt % 2 == 0;
        const int op = traced ? tr.begin("op.round_trip") : -1;
        const double tf = transform(*engine, NttDirection::Forward, data,
                                    x, ref, 2 * rt, traced);
        const double ti = transform(*engine, NttDirection::Inverse, data,
                                    ref, x, 2 * rt + 1, traced);
        tr.end(op);
        (traced ? res.tracedOpS : res.opS).push_back(tf + ti);
        res.samples["transform_ms"].push_back(tf * 1e3);
        res.samples["transform_ms"].push_back(ti * 1e3);
        res.loopWallS += tf + ti;
        res.loopOps++;
    }
    const double elapsed = wallNow() - w0;
    res.layer("util.cpu_util",
              (cpuNow() - cpu0) / (elapsed * kHostThreads), "loop");

    res.extra["melem_per_s"] =
        2.0 * res.loopOps * static_cast<double>(size_t{1} << kLogN) /
        res.loopWallS / 1e6;
    res.extra["sim_transform_us"] = median(simUs);

    // Fault counters per transform over the first kCountedTransforms
    // (a fixed, seed-determined set, so they repeat exactly).
    const double n = kCountedTransforms;
    const std::map<std::string, double> counts = {
        {"unintt.abft_checks", counted.abftChecks / n},
        {"unintt.abft_catches", counted.abftCatches / n},
        {"unintt.spot_checks", counted.spotChecks / n},
        {"unintt.transient_retries", counted.transientRetries / n},
        {"unintt.corruptions_detected", counted.corruptionsDetected / n},
        {"unintt.tiles_recomputed", counted.tilesRecomputed / n},
        {"unintt.abft_escalations", counted.abftEscalations / n},
        {"unintt.degraded_replans", counted.degradedReplans / n},
        {"unintt.injected_faults", countedInjected / n},
    };
    const double attempts =
        static_cast<double>(counted.exchanges + counted.abftChecks);
    const double wasted =
        attempts > 0 ? (counted.transientRetries + counted.tilesRecomputed +
                        counted.degradedReplans) /
                           attempts
                     : 0;
    for (const auto &kv : counts) {
        res.deterministic[kv.first] = kv.second;
        res.layer(kv.first, kv.second, "loop");
    }
    res.deterministic["unintt.wasted_ratio"] = wasted;
    res.layer("unintt.wasted_ratio", wasted, "loop");

    if (tr.enabled()) {
        ProbeShape shape;
        shape.logN = kLogN;
        shape.gpus = kGpus;
        shape.compileLogNs = {kLogN};
        shape.resilientCompile = true;
        runLayerProbes(shape, spec.seed, tr, res);
    }
}

// ---------------------------------------------------------------------
// stark-prove: prove + verify of the square-and-increment STARK.
// ---------------------------------------------------------------------

void
runStarkProve(const RunSpec &spec, Tracer &tr, RunResult &res)
{
    constexpr unsigned kLogTrace = 12;
    res.opName = "one STARK prove, 2^12 trace (verify timed apart)";
    unsigned wrong = spec.injectWrong;
    auto startOf = [&](uint64_t i) {
        return F::fromU64(subSeed(spec.seed, 2000 + i));
    };
    auto checkProof = [&](const SquareStark &s, StarkProof &proof,
                          double *verify_s) {
        if (wrong > 0) {
            --wrong;
            proof.queries[0].traceCur += F::one();
        }
        bool ok = false;
        const double t0 = wallNow();
        ok = s.verify(proof);
        if (verify_s)
            *verify_s = wallNow() - t0;
        res.check(ok, "proof does not verify");
    };

    for (unsigned k = 0; k < kSetupReps; ++k) {
        clearHostCaches();
        const double t0 = wallNow();
        const SquareStark s;
        StarkProof proof = s.prove(startOf((1ULL << 32) + k), kLogTrace);
        checkProof(s, proof, nullptr);
        res.setupS.push_back(wallNow() - t0);
    }

    const SquareStark stark;
    std::vector<double> verifyS, roundS, ckptBytes, rounds;
    const double cpu0 = cpuNow();
    const double w0 = wallNow();
    for (uint64_t i = 0; i < 2 || wallNow() - w0 < spec.seconds; ++i) {
        const bool traced = tr.enabled() && i % 2 == 0;
        StarkProof proof;
        double prove_s = 0;
        if (traced) {
            // Traced proofs run the checkpointed pipeline, whose gates
            // mark every stage and FRI-round boundary.
            CheckpointStore store;
            ProofSpans ps{tr};
            const int id = tr.begin("zkp.prove");
            const double t0 = wallNow();
            Result<StarkProof> r = stark.proveCheckpointed(
                startOf(i), kLogTrace, store,
                [&](unsigned, const std::string &name) {
                    return ps.onStage(name);
                },
                [&](const std::string &stage, unsigned) {
                    return ps.onRound(stage);
                });
            ps.finish();
            prove_s = wallNow() - t0;
            tr.end(id);
            if (!r.ok()) {
                res.check(false, "checkpointed prove failed: " +
                                     r.status().toString());
                continue;
            }
            proof = std::move(r.value());
            roundS.insert(roundS.end(), ps.roundS.begin(), ps.roundS.end());
            rounds.push_back(ps.rounds);
            ckptBytes.push_back(store.stats().bytesWritten);
            res.tracedOpS.push_back(prove_s);
        } else {
            const double t0 = wallNow();
            proof = stark.prove(startOf(i), kLogTrace);
            prove_s = wallNow() - t0;
            res.opS.push_back(prove_s);
        }
        double verify_s = 0;
        const int vid = traced ? tr.begin("zkp.verify") : -1;
        checkProof(stark, proof, &verify_s);
        tr.end(vid);
        verifyS.push_back(verify_s);
        res.loopWallS += prove_s + verify_s;
        res.loopOps++;
    }
    const double elapsed = wallNow() - w0;
    res.layer("util.cpu_util",
              (cpuNow() - cpu0) / (elapsed * kHostThreads), "loop");
    res.samples["verify_ms"] = verifyS;
    for (double &v : res.samples["verify_ms"])
        v *= 1e3;
    res.extra["verify_ms_p50"] = median(verifyS) * 1e3;

    if (tr.enabled()) {
        for (const std::string &s : proofStages())
            res.layer("zkp.stage." + s + "_s",
                      median(tr.durations("zkp.stage." + s)), "loop");
        res.layer("zkp.fri_round_ms", median(roundS) * 1e3, "loop");
        res.layer("zkp.fri_rounds", median(rounds), "loop");
        res.layer("zkp.checkpoint_bytes", median(ckptBytes), "loop");
        res.layer("zkp.verify_ms", median(verifyS) * 1e3, "loop");
        res.layer("zkp.prove_s", median(res.opS), "loop");
        ProbeShape shape;
        shape.logN = kLogTrace + StarkParams{}.logBlowup;
        shape.gpus = 4;
        shape.logTrace = kLogTrace;
        shape.compileLogNs = {kLogTrace, shape.logN};
        runLayerProbes(shape, spec.seed, tr, res);
    }
}

// ---------------------------------------------------------------------
// service-mix: open-loop Poisson arrivals against the proving service.
// ---------------------------------------------------------------------

namespace {

constexpr unsigned kServiceGpus = 4;
/** Jobs per trace: every (tenant, kind, logN) combination 10 times. */
constexpr unsigned kServiceJobs = 240;
constexpr double kOfferedLoad = 0.8;
const unsigned kServiceLogNs[] = {10, 12, 14, 16};

} // namespace

ServiceConfig
serviceConfig()
{
    ServiceConfig c;
    c.jobGpus = 2;
    c.hostThreads = kHostThreads;
    c.verifyOutputs = true;
    // Admission limits well above what a 0.8 offered load queues, so
    // no job is shed or refused: every refusal would count as failed.
    c.queueCapacity = 4 * kServiceJobs;
    c.quota.maxQueued = 4 * kServiceJobs;
    return c;
}

/**
 * Poisson arrivals at kOfferedLoad of the capacity
 * estimateServiceSeconds gives for the mix. The mix itself is fixed:
 * every (tenant, kind, logN) combination of three tenants (premium,
 * standard, bulk), forward and inverse jobs and kServiceLogNs appears
 * equally often, in a seeded order, with inputs from a per-tenant pool
 * of 4 seeds. So a seed moves arrival times, order and inputs, never
 * how much work a trace holds.
 */
std::vector<Arrival>
makeArrivals(const ProvingService &svc, uint64_t seed, unsigned jobs)
{
    double mean = 0;
    unsigned shapes = 0;
    for (JobKind kind : {JobKind::NttForward, JobKind::NttInverse})
        for (unsigned logN : kServiceLogNs) {
            mean += svc.estimateServiceSeconds(kind, logN);
            shapes++;
        }
    mean /= shapes;
    const double slots = kServiceGpus / serviceConfig().jobGpus;
    const double rate = kOfferedLoad * slots / mean;

    static const SlaClass kSla[] = {SlaClass::Premium, SlaClass::Standard,
                                    SlaClass::Batch};
    std::vector<Arrival> out(jobs);
    for (unsigned j = 0; j < jobs; ++j) {
        const unsigned combo = j % (3 * shapes);
        JobSpec &s = out[j].spec;
        s.tenant = combo % 3;
        s.sla = kSla[s.tenant];
        s.kind = (combo / 3) % 2 ? JobKind::NttInverse : JobKind::NttForward;
        s.logN = kServiceLogNs[combo / 6];
    }
    Rng rng(subSeed(seed, 3));
    for (unsigned j = jobs; j > 1; --j)
        std::swap(out[j - 1], out[rng.below(j)]);
    double t = 0;
    for (unsigned j = 0; j < jobs; ++j) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        out[j].at = t;
        out[j].spec.id = j + 1;
        out[j].spec.seed =
            subSeed(seed, 3000 + out[j].spec.tenant * 16 + rng.below(4));
    }
    return out;
}

double
serviceRound(const std::vector<Arrival> &trace, Tracer &tr, bool traced,
             unsigned &wrong, RunResult &res, std::vector<double> *job_s,
             const RoundFacts *expect, RoundFacts &facts)
{
    ProvingService svc(makeDgxA100(kServiceGpus), serviceConfig());
    uint64_t bad = 0;
    std::string why;
    for (const Arrival &a : trace) {
        JobSpec spec = a.spec;
        if (wrong > 0 && a.spec.id == 1) {
            // Self-test hook: a job the service must refuse.
            --wrong;
            spec.logN = 0;
        }
        const int op = traced ? tr.begin("op.job") : -1;
        const double t0 = wallNow();
        timed(tr, traced, "service.run_until", [&] { svc.runUntil(a.at); });
        Status st;
        timed(tr, traced, "service.submit",
              [&] { st = svc.submit(spec, a.at); });
        const double dt = wallNow() - t0;
        tr.end(op);
        if (!st.ok()) {
            bad++;
            why = "service refused a job: " + st.toString();
        }
        if (job_s)
            job_s->push_back(dt);
    }
    const double drain =
        timed(tr, traced, "service.drain", [&] { svc.drain(); });

    // Every submitted job is accounted for, and none is wrong.
    for (const JobOutcome &o : svc.outcomes())
        if (!o.status.ok() || !o.verified) {
            bad++;
            why = "service job failed or wrong: " + o.status.toString();
        }
    const ServiceCounters c = svc.totals();
    if (c.submitted != c.admitted + c.shed + c.quotaRejected ||
        c.admitted != c.completed + c.failed + c.deadlineMissed ||
        svc.outcomes().size() != c.admitted || svc.corruptResults() != 0) {
        bad++;
        why = "service accounting does not balance";
    }

    double makespan = 0;
    for (const JobOutcome &o : svc.outcomes()) {
        facts.latencyUs.push_back(o.latency() * 1e6);
        facts.waitUs.push_back((o.started - o.arrival) * 1e6);
        makespan = std::max(makespan, o.finish);
    }
    facts.admittedRatio = static_cast<double>(c.admitted) / c.submitted;
    facts.coalescedRatio =
        c.completed ? static_cast<double>(c.coalesced) / c.completed : 0;
    facts.fleetUtil =
        makespan > 0 ? svc.busyGpuSeconds() / (kServiceGpus * makespan)
                     : 0;
    if (expect && facts.latencyUs != expect->latencyUs) {
        bad++;
        why = "virtual-time latencies changed between replays";
    }
    for (size_t j = 0; j < trace.size(); ++j)
        res.check(j >= bad, why);
    return drain;
}

void
runServiceMix(const RunSpec &spec, Tracer &tr, RunResult &res)
{
    res.opName = "one replay of the 240-job arrival trace (runUntil + submit per job, then drain)";
    unsigned wrong = spec.injectWrong;

    // Set-up is the service's cold start for this mix: construction,
    // the capacity estimate the arrival trace is built from, and a
    // first job of every shape (the plan, schedule and twiddle builds).
    std::vector<Arrival> trace;
    for (unsigned k = 0; k < kServiceSetupReps; ++k) {
        clearHostCaches();
        const double t0 = wallNow();
        ProvingService svc(makeDgxA100(kServiceGpus), serviceConfig());
        std::vector<Arrival> t = makeArrivals(svc, spec.seed, kServiceJobs);
        bool ok = true;
        uint64_t id = 0;
        for (JobKind kind : {JobKind::NttForward, JobKind::NttInverse})
            for (unsigned logN : kServiceLogNs) {
                JobSpec js = t.front().spec;
                js.id = ++id;
                js.kind = kind;
                js.logN = logN;
                ok = svc.submit(js, 0).ok() && ok;
            }
        svc.drain();
        res.setupS.push_back(wallNow() - t0);
        for (const JobOutcome &o : svc.outcomes())
            ok = ok && o.status.ok() && o.verified;
        res.check(ok && svc.outcomes().size() == id, "set-up jobs failed");
        trace = std::move(t);
    }

    // Each round replays the same trace on a fresh service, so its
    // virtual-time outcome must repeat exactly.
    RoundFacts first;
    bool have_first = false;
    const double cpu0 = cpuNow();
    const double w0 = wallNow();
    for (uint64_t r = 0;
         r < 2 || !have_first || wallNow() - w0 < spec.seconds; ++r) {
        const bool traced = tr.enabled() && r % 2 == 0;
        // A round carrying a self-test injection replays a different
        // trace, so it neither sets nor is held to the reference.
        const bool injecting = wrong > 0;
        RoundFacts facts;
        std::vector<double> job_s;
        const double drain = serviceRound(
            trace, tr, traced, wrong, res, &job_s,
            have_first && !injecting ? &first : nullptr, facts);
        double replay_s = drain;
        for (double s : job_s)
            replay_s += s;
        (traced ? res.tracedOpS : res.opS).push_back(replay_s);
        res.loopWallS += replay_s;
        res.loopOps++;
        if (!have_first && !injecting) {
            first = facts;
            have_first = true;
        }
    }
    const double elapsed = wallNow() - w0;
    res.layer("util.cpu_util",
              (cpuNow() - cpu0) / (elapsed * kHostThreads), "loop");

    res.extra["jobs_per_s"] = res.loopOps * kServiceJobs / res.loopWallS;
    res.samples["job_sim_us"] = first.latencyUs;
    res.samples["queue_wait_sim_us"] = first.waitUs;
    res.deterministic["admitted_ratio"] = first.admittedRatio;
    res.deterministic["coalesced_ratio"] = first.coalescedRatio;
    res.deterministic["fleet_util"] = first.fleetUtil;

    if (tr.enabled()) {
        res.layer("service.submit_us",
                  mean(tr.durations("service.submit")) * 1e6, "loop");
        res.layer("service.run_until_us",
                  mean(tr.durations("service.run_until")) * 1e6, "loop");
        res.layer("service.admitted_ratio", first.admittedRatio, "loop");
        res.layer("service.coalesced_ratio", first.coalescedRatio, "loop");
        res.layer("service.fleet_util", first.fleetUtil, "loop");
        ProbeShape shape;
        shape.logN = 16;
        shape.gpus = serviceConfig().jobGpus;
        shape.compileLogNs = {10, 12, 14, 16};
        shape.compileGpus = shape.gpus;
        runLayerProbes(shape, spec.seed, tr, res);
    }
}

} // namespace perfbench
