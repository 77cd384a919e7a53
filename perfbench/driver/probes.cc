/**
 * @file
 * The traced run's layer probes. Each fills the per-layer metrics the
 * workload's own traced loop did not supply, at the workload's shape
 * (ProbeShape), so every traced run reports every per-layer metric.
 */

#include <algorithm>

#include "common.hh"
#include "ntt/radix2.hh"
#include "unintt/schedule.hh"
#include "zkp/checkpoint.hh"
#include "zkp/merkle.hh"
#include "zkp/stark.hh"

using namespace unintt;

namespace perfbench {

namespace {

/** Repeat @p fn in batches until @p budget_s has passed (at least
 * @p min_batches); the median seconds of one call. */
template <typename Fn>
double
medianCallSeconds(unsigned calls_per_batch, unsigned min_batches,
                  double budget_s, Fn &&fn)
{
    std::vector<double> per_call;
    const double start = wallNow();
    while (per_call.size() < min_batches || wallNow() - start < budget_s) {
        const double t0 = wallNow();
        for (unsigned i = 0; i < calls_per_batch; ++i)
            fn();
        per_call.push_back((wallNow() - t0) / calls_per_batch);
        if (per_call.size() >= 64)
            break;
    }
    return median(per_call);
}

volatile uint64_t g_sink = 0;

/** field.bfly_ns (bound table, L2-resident span) and field.mul_ns. */
void
probeField(uint64_t seed, RunResult &res)
{
    const FieldKernels<F> &k = fieldKernels<F>(IsaPath::Auto);
    constexpr size_t kHalf = size_t{1} << 13; // 2 x 64 KiB of data
    std::vector<F> lo = randomVector(kHalf, subSeed(seed, 10));
    std::vector<F> hi = randomVector(kHalf, subSeed(seed, 11));
    const std::vector<F> tw = randomVector(kHalf, subSeed(seed, 12));
    const double bfly_s = medianCallSeconds(16, 9, 0.2, [&] {
        k.bflyFwd(lo.data(), hi.data(), tw.data(), 1, kHalf);
    });
    g_sink = g_sink + lo[0].value();
    res.layer("field.bfly_ns", bfly_s / kHalf * 1e9, "probe");

    constexpr size_t kMul = 4096;
    std::vector<F> a = randomVector(kMul, subSeed(seed, 13));
    const std::vector<F> b = randomVector(kMul, subSeed(seed, 14));
    const double mul_s = medianCallSeconds(16, 9, 0.2, [&] {
        for (size_t i = 0; i < kMul; ++i)
            a[i] *= b[i];
    });
    g_sink = g_sink + a[kMul - 1].value();
    res.layer("field.mul_ns", mul_s / kMul * 1e9, "probe");
}

/** unintt.* and sim.* at the workload's shape, plus unintt.hardened_x. */
void
probeEngine(const ProbeShape &shape, uint64_t seed, Tracer &tr,
            RunResult &res)
{
    const MultiGpuSystem sys = makeDgxA100(shape.gpus);
    const UniNttEngine<F> e(sys, benchConfig());
    if (!res.layers.count("unintt.forward_ms")) {
        const std::vector<F> x =
            randomVector(size_t{1} << shape.logN, subSeed(seed, 20));
        auto d = DistributedVector<F>::fromGlobal(x, shape.gpus);
        SimReport fr = e.forward(d), ir = e.inverse(d);
        const CacheSnapshot before = CacheSnapshot::take();
        const double start = wallNow();
        for (unsigned r = 0; r < 3 || (r < 64 && wallNow() - start < 0.5);
             ++r) {
            timed(tr, true, "unintt.forward", [&] { fr = e.forward(d); });
            timed(tr, true, "unintt.inverse", [&] { ir = e.inverse(d); });
        }
        recordCacheRatios(before, CacheSnapshot::take(), res, "probe");
        res.layer("unintt.forward_ms",
                  median(tr.durations("unintt.forward")) * 1e3, "probe");
        res.layer("unintt.inverse_ms",
                  median(tr.durations("unintt.inverse")) * 1e3, "probe");
        recordEngineLayers(e, shape.logN, fr, ir, res, "probe");
    }

    // Resilient over plain forward, same input, fault-free machine.
    const unsigned logN = std::min(shape.logN, 22u);
    const std::vector<F> x =
        randomVector(size_t{1} << logN, subSeed(seed, 21));
    auto d = DistributedVector<F>::fromGlobal(x, shape.gpus);
    std::vector<double> plain, hard;
    const ResilienceConfig rc;
    for (unsigned r = 0; r < 4; ++r) {
        auto p = d;
        plain.push_back(timed(tr, true, "probe.plain_forward",
                              [&] { e.forward(p); }));
        auto q = d;
        FaultInjector none(FaultModel::none());
        hard.push_back(timed(tr, true, "probe.resilient_forward", [&] {
            (void)e.forwardResilient(q, none, rc);
        }));
    }
    // The first pair warms the caches.
    plain.erase(plain.begin());
    hard.erase(hard.begin());
    res.layer("unintt.hardened_x", median(hard) / median(plain), "probe");
    for (const char *name :
         {"unintt.abft_checks", "unintt.abft_catches", "unintt.spot_checks",
          "unintt.transient_retries", "unintt.corruptions_detected",
          "unintt.tiles_recomputed", "unintt.abft_escalations",
          "unintt.degraded_replans", "unintt.injected_faults",
          "unintt.wasted_ratio"})
        res.layer(name, 0, "not exercised");
}

/** unintt.schedule_compile_us (cold) and sim.analytic_run_us. */
void
probeCompile(const ProbeShape &shape, RunResult &res)
{
    const MultiGpuSystem sys = makeDgxA100(shape.compileGpus);
    const UniNttEngine<F> e(sys, benchConfig());
    ScheduleOptions opts;
    if (shape.resilientCompile) {
        const ResilienceConfig rc;
        opts.resilient = true;
        opts.spotChecks = rc.spotChecks;
        opts.abft = rc.abft;
    }
    std::vector<double> compile_s, analytic_s;
    for (unsigned logN : shape.compileLogNs)
        for (NttDirection dir :
             {NttDirection::Forward, NttDirection::Inverse}) {
            const NttPlan pl = planNttWithTile(logN, sys, sizeof(F), 0);
            compile_s.push_back(medianCallSeconds(1, 5, 0.05, [&] {
                g_sink = g_sink + compileSchedule(pl, sys, dir, sizeof(F),
                                                  e.config(),
                                                  CostConstants{}, opts)
                                      .steps.size();
            }));
            (void)e.analyticRun(logN, dir); // warm the caches
            analytic_s.push_back(medianCallSeconds(1, 5, 0.05, [&] {
                g_sink = g_sink + static_cast<uint64_t>(
                                      e.analyticRun(logN, dir)
                                          .totalSeconds() > 0);
            }));
        }
    res.layer("unintt.schedule_compile_us", median(compile_s) * 1e6,
              "probe");
    res.layer("sim.analytic_run_us", median(analytic_s) * 1e6, "probe");
}

/** The prover's radix-2 NTT calls for a 2^log_trace trace. */
std::vector<std::pair<unsigned, NttDirection>>
proverNttCalls(unsigned log_trace, const StarkParams &p)
{
    const unsigned log_d = log_trace + p.logBlowup;
    unsigned log_final = log_d;
    while ((size_t{1} << (log_final - p.logBlowup)) > p.friFinalTerms)
        --log_final;
    std::vector<std::pair<unsigned, NttDirection>> calls;
    calls.emplace_back(log_trace, NttDirection::Inverse); // trace interp
    for (int commit = 0; commit < 3; ++commit) {
        calls.emplace_back(log_d, NttDirection::Forward);      // FRI LDE
        calls.emplace_back(log_final, NttDirection::Inverse); // final poly
    }
    calls.emplace_back(log_d, NttDirection::Inverse); // quotient interp
    calls.emplace_back(log_d, NttDirection::Inverse); // boundary interp
    return calls;
}

/** Merkle hash calls (leaf hashes + compressions) of one proof's three
 * FRI commits. */
double
hashesPerProof(unsigned log_trace, const StarkParams &p)
{
    double hashes = 0;
    for (size_t s = size_t{1} << (log_trace + p.logBlowup);
         (s >> p.logBlowup) > p.friFinalTerms; s /= 2)
        hashes += 2.0 * s - 1;
    return 3 * hashes;
}

/** zkp.* and ntt.radix2_ms at the probe's trace length. */
void
probeZkp(const ProbeShape &shape, uint64_t seed, Tracer &tr,
         RunResult &res)
{
    const StarkParams params;
    const SquareStark stark(params);
    const F t0 = F::fromU64(subSeed(seed, 30));
    if (!res.layers.count("zkp.prove_s")) {
        CheckpointStore store;
        ProofSpans ps{tr};
        const int id = tr.begin("zkp.prove");
        Result<StarkProof> r = stark.proveCheckpointed(
            t0, shape.logTrace, store,
            [&](unsigned, const std::string &n) { return ps.onStage(n); },
            [&](const std::string &s, unsigned) { return ps.onRound(s); });
        ps.finish();
        tr.end(id);
        res.check(r.ok(), "probe proof failed");
        for (const std::string &s : proofStages())
            res.layer("zkp.stage." + s + "_s",
                      median(tr.durations("zkp.stage." + s)), "probe");
        res.layer("zkp.fri_round_ms", median(ps.roundS) * 1e3, "probe");
        res.layer("zkp.fri_rounds", ps.rounds, "probe");
        res.layer("zkp.checkpoint_bytes", store.stats().bytesWritten,
                  "probe");
        StarkProof proof;
        const double prove_s = timed(tr, true, "zkp.prove", [&] {
            proof = stark.prove(t0, shape.logTrace);
        });
        bool ok = false;
        const double verify_s =
            timed(tr, true, "zkp.verify", [&] { ok = stark.verify(proof); });
        res.check(ok, "probe proof does not verify");
        res.layer("zkp.prove_s", prove_s, "probe");
        res.layer("zkp.verify_ms", verify_s * 1e3, "probe");
    }

    // The prover's NTTs replayed at the same sizes and counts.
    const auto calls = proverNttCalls(shape.logTrace, params);
    std::vector<std::vector<F>> inputs;
    for (size_t i = 0; i < calls.size(); ++i)
        inputs.push_back(
            randomVector(size_t{1} << calls[i].first, subSeed(seed, 40 + i)));
    const double ntt_s = medianCallSeconds(1, 5, 0.1, [&] {
        for (size_t i = 0; i < calls.size(); ++i) {
            std::vector<F> v = inputs[i];
            if (calls[i].second == NttDirection::Forward)
                nttForwardInPlace(v);
            else
                nttInverseInPlace(v);
            g_sink = g_sink + v[0].value();
        }
    });
    res.layer("ntt.radix2_ms", ntt_s * 1e3, "probe");
    res.layer("zkp.ntt_share", ntt_s / res.layers["zkp.prove_s"], "probe");

    // One FRI-shaped commit: single-element leaves over the LDE domain.
    const size_t d = size_t{1} << (shape.logTrace + params.logBlowup);
    const std::vector<F> code = randomVector(d, subSeed(seed, 50));
    const double merkle_s = medianCallSeconds(1, 1, 0.2, [&] {
        std::vector<std::vector<F>> leaves(d);
        for (size_t i = 0; i < d; ++i)
            leaves[i] = {code[i]};
        const int id = tr.begin("zkp.merkle_build");
        MerkleTree tree(std::move(leaves));
        tr.end(id);
        g_sink = g_sink + tree.root()[0].value();
    });
    res.layer("zkp.merkle_build_ms", merkle_s * 1e3, "probe");

    std::vector<F> leaf{code[0]};
    const double hash_s = medianCallSeconds(2000, 9, 0.1, [&] {
        const Digest dg = hashLeaf(leaf);
        leaf[0] = dg[0];
    });
    res.layer("zkp.hash_ns", hash_s * 1e9, "probe");
    res.layer("zkp.hashes_per_proof", hashesPerProof(shape.logTrace, params),
              "computed");
}

/** service.* from one replay of a short service-mix trace. */
void
probeService(uint64_t seed, Tracer &tr, RunResult &res)
{
    if (res.samples.count("job_sim_us"))
        return;
    std::vector<Arrival> trace;
    {
        const ProvingService svc(makeDgxA100(4), serviceConfig());
        trace = makeArrivals(svc, seed, 48); // each combination twice
    }
    unsigned no_wrong = 0;
    RoundFacts facts;
    const int id = tr.begin("probe.service");
    serviceRound(trace, tr, true, no_wrong, res, nullptr, nullptr, facts);
    tr.end(id);
    res.layer("service.submit_us",
              mean(tr.durations("service.submit")) * 1e6, "probe");
    res.layer("service.run_until_us",
              mean(tr.durations("service.run_until")) * 1e6, "probe");
    res.layer("service.admitted_ratio", facts.admittedRatio, "probe");
    res.layer("service.coalesced_ratio", facts.coalescedRatio, "probe");
    res.layer("service.fleet_util", facts.fleetUtil, "probe");
    res.samples["job_sim_us"] = facts.latencyUs;
    res.samples["queue_wait_sim_us"] = facts.waitUs;
}

} // namespace

void
runLayerProbes(const ProbeShape &shape, uint64_t seed, Tracer &tr,
               RunResult &res)
{
    const int id = tr.begin("probes");
    probeField(seed, res);
    probeEngine(shape, seed, tr, res);
    probeCompile(shape, res);
    probeZkp(shape, seed, tr, res);
    probeService(seed, tr, res);
    tr.end(id);
}

} // namespace perfbench
