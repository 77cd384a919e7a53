/**
 * @file
 * Perf-trajectory harness for the host butterfly kernels.
 *
 * Times the fused tile-resident local passes (unintt/executors.hh,
 * fusedLocalStagesCompute) against the per-stage path on one pinned
 * configuration — Goldilocks, one GPU chunk, one host thread — so the
 * number tracks kernel quality, not scheduling luck. The sweep runs
 * once per acceleration path the router can bind on this host
 * (field/dispatch.hh), so BENCH_host_ntt.json carries one point per
 * (logN, isa) pair and the scalar/AVX2/AVX-512 trajectories diff
 * independently across commits. Each point times both directions,
 * the forward (DIF) and the inverse (DIT, n^-1 scale included). Every
 * path's output is first checked bit-identical against the
 * forced-scalar engine on the same input, per direction. The four
 * timings of a point (fused and per-stage, forward and inverse) then
 * run interleaved, rep by rep, so host drift lands on all four alike;
 * each reports the median ns per butterfly and its interquartile
 * range over the reps. A point whose widest IQR exceeds kMaxSpread of
 * its median is timed again, up to kMaxReruns more times, and keeps
 * its tightest timing. The harness also reports elements per second,
 * the fused speedup and the fused inverse's cost beside the fused
 * forward's (fused inverse median / fused forward median), and writes
 * the machine-readable
 * BENCH_host_ntt.json that scripts/bench.sh (and CI in --smoke mode)
 * diff across commits; EXPERIMENTS.md documents its schema.
 *
 * Flags:
 *   --smoke      tiny sizes for CI; exits non-zero if the fused path's
 *                median is more than 10% slower than the per-stage
 *                path's in either direction.
 *   --out=PATH   where to write the JSON (default BENCH_host_ntt.json).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "field/dispatch.hh"
#include "field/goldilocks.hh"
#include "sim/fault.hh"
#include "unintt/engine.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace unintt;

namespace {

using F = Goldilocks;

constexpr unsigned kGpus = 1;

double
nsPerButterfly(double seconds, unsigned logN)
{
    const double butterflies =
        static_cast<double>(logN) *
        static_cast<double>(1ULL << logN) / 2.0;
    return seconds * 1e9 / butterflies;
}

/** One transform of @p dist in place, in direction @p dir. */
void
runTransform(UniNttEngine<F> &engine, DistributedVector<F> &dist,
             NttDirection dir)
{
    if (dir == NttDirection::Forward)
        engine.forward(dist);
    else
        engine.inverse(dist);
}

/** @p engine's output for @p input in direction @p dir. */
std::vector<F>
transform(UniNttEngine<F> &engine, const std::vector<F> &input,
          NttDirection dir)
{
    auto dist = DistributedVector<F>::fromGlobal(input, kGpus);
    runTransform(engine, dist, dir);
    return dist.toGlobal();
}

/**
 * One timed configuration of a point: an engine, a direction and the
 * vector it transforms in place, rep after rep.
 */
struct Timed
{
    UniNttEngine<F> *engine;
    NttDirection dir;
    DistributedVector<F> dist;
    std::vector<double> seconds;
};

/**
 * Time every configuration in @p runs once per rep, interleaved, after
 * one warm-up call each (plan, schedule and twiddle caches); one
 * Spread per configuration, in order.
 */
std::vector<Spread>
timeInterleaved(std::vector<Timed> &runs, int reps)
{
    for (Timed &t : runs) {
        t.seconds.clear();
        runTransform(*t.engine, t.dist, t.dir);
    }
    for (int r = 0; r < reps; ++r)
        for (Timed &t : runs)
            t.seconds.push_back(wallSeconds(
                [&] { runTransform(*t.engine, t.dist, t.dir); }));
    std::vector<Spread> out;
    for (const Timed &t : runs)
        out.emplace_back(t.seconds);
    return out;
}

/** IQR share of the median above which a point is timed again. */
constexpr double kMaxSpread = 0.10;
/** Extra timings a wide point gets at most. */
constexpr unsigned kMaxReruns = 2;

/** The widest IQR among @p spreads, as a share of its median. */
double
widestSpread(const std::vector<Spread> &spreads)
{
    double w = 0;
    for (const Spread &s : spreads)
        w = std::max(w, s.iqr / s.median);
    return w;
}

/**
 * Time a point with @p time_once (which returns one Spread per timed
 * configuration), again while its widest spread exceeds kMaxSpread,
 * at most kMaxReruns more times, and keep the tightest timing. Adds
 * the extra timings to @p reruns.
 */
template <typename Fn>
std::vector<Spread>
timeTightest(Fn time_once, unsigned &reruns)
{
    std::vector<Spread> best = time_once();
    for (unsigned k = 0;
         k < kMaxReruns && widestSpread(best) > kMaxSpread; ++k) {
        std::vector<Spread> again = time_once();
        ++reruns;
        if (widestSpread(again) < widestSpread(best))
            best = std::move(again);
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_host_ntt.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(argv[i], "--out=", 6) == 0)
            out_path = argv[i] + 6;
        else
            fatal("unknown flag '%s' (--smoke, --out=PATH)", argv[i]);
    }

    benchHeader("BENCH host NTT",
                "fused tile-resident vs per-stage host butterflies, "
                "per acceleration path");
    auto sys = makeDgxA100(kGpus);
    verifyOrDie<F>(sys);
    std::printf("%s\n", routerDescription().c_str());

    // 2^12-2^16 put every remainder of the tail group's upper stages
    // (after its sub-lane stages) in the sweep; 2^20-2^24 stream head
    // groups from DRAM.
    const std::vector<unsigned> log_ns =
        smoke ? std::vector<unsigned>{14, 16}
              : std::vector<unsigned>{12, 13, 14, 15, 16, 20, 22, 24};
    const int reps = smoke ? 7 : 9;
    const std::vector<IsaPath> paths = availableIsaPaths();

    UniNttConfig base_cfg;
    base_cfg.hostThreads = 1;

    std::printf("pinned: %s, %u host thread, median and IQR of %d "
                "interleaved reps\n\n",
                sys.description().c_str(), base_cfg.hostThreads, reps);

    JsonWriter jw;
    jw.field("bench", "host_ntt")
        .field("field", F::kName)
        .field("gpus", kGpus)
        .field("hostThreads", base_cfg.hostThreads)
        .field("router", isaPathName(resolveIsaPath(IsaPath::Auto)))
        .field("smoke", smoke)
        .field("reps", static_cast<unsigned>(reps))
        .field("statistic", "median")
        .field("spread", "iqr")
        .beginArray("points");

    // Scalar reference engine: every path's bytes must match its
    // output before that path's timing is worth reporting.
    UniNttConfig scalar_cfg = base_cfg;
    scalar_cfg.isaPath = IsaPath::Scalar;
    UniNttEngine<F> scalar_ref(sys, scalar_cfg);

    Table t({"logN", "isa", "tile", "fused ns/bfly (iqr)",
             "per-stage ns/bfly (iqr)", "fused elem/s", "speedup",
             "inv fused ns/bfly (iqr)", "inv per-stage ns/bfly (iqr)",
             "fused inv/fwd"});
    bool smoke_ok = true;
    unsigned points = 0, points_rerun = 0;
    double min_large_speedup = 1e300;
    double best_fused_ns = 1e300;
    for (unsigned logN : log_ns) {
        Rng rng(4040 + logN);
        std::vector<F> input(1ULL << logN);
        for (auto &v : input)
            v = F::fromU64(rng.next());

        const std::vector<F> ref =
            transform(scalar_ref, input, NttDirection::Forward);
        const std::vector<F> ref_inv =
            transform(scalar_ref, input, NttDirection::Inverse);

        for (IsaPath isa : paths) {
            UniNttConfig fused_cfg = base_cfg;
            fused_cfg.isaPath = isa;
            UniNttConfig unfused_cfg = fused_cfg;
            unfused_cfg.fuseLocalPasses = false;
            UniNttEngine<F> fused(sys, fused_cfg);
            UniNttEngine<F> unfused(sys, unfused_cfg);

            // Byte-identity gates: fused and per-stage under this
            // path must both reproduce the forced-scalar bytes, in
            // both directions.
            for (auto dir : {NttDirection::Forward,
                             NttDirection::Inverse}) {
                const std::vector<F> &want =
                    dir == NttDirection::Forward ? ref : ref_inv;
                if (transform(fused, input, dir) != want)
                    fatal("%s fused %s output differs from scalar at "
                          "2^%u", isaPathName(isa), toString(dir), logN);
                if (transform(unfused, input, dir) != want)
                    fatal("%s per-stage %s output differs from scalar "
                          "at 2^%u", isaPathName(isa), toString(dir),
                          logN);
            }

            unsigned tile_log2 = 0;
            for (const auto &st :
                 fused.schedule(logN, NttDirection::Forward)->steps)
                if (st.kind == StepKind::FusedLocalPass)
                    tile_log2 = st.tileLog2;

            std::vector<Timed> runs;
            for (auto dir : {NttDirection::Forward,
                             NttDirection::Inverse})
                for (UniNttEngine<F> *e : {&fused, &unfused})
                    runs.push_back(
                        {e, dir,
                         DistributedVector<F>::fromGlobal(input, kGpus),
                         {}});
            unsigned reruns = 0;
            const std::vector<Spread> sp = timeTightest(
                [&] { return timeInterleaved(runs, reps); }, reruns);
            ++points;
            points_rerun += reruns > 0;
            // runs: fused fwd, per-stage fwd, fused inv, per-stage inv.
            const Spread &f = sp[0], &u = sp[1], &fi = sp[2], &ui = sp[3];
            auto ns = [&](double sec) { return nsPerButterfly(sec, logN); };
            auto cell = [&](const Spread &x) {
                return fmtF(ns(x.median), 3) + " (" + fmtF(ns(x.iqr), 3) +
                       ")";
            };
            const double fns = ns(f.median);
            const double uns = ns(u.median);
            const double fins = ns(fi.median);
            const double uins = ns(ui.median);
            const double elems = static_cast<double>(1ULL << logN);
            const double speedup = uns / fns;
            const double inv_over_fwd = fi.median / f.median;
            if (smoke && (fns > 1.10 * uns || fins > 1.10 * uins))
                smoke_ok = false;
            if (logN >= 20)
                min_large_speedup =
                    std::min(min_large_speedup, speedup);
            if (logN >= 20)
                best_fused_ns = std::min(best_fused_ns, fns);

            t.addRow({std::to_string(logN), isaPathName(isa),
                      "2^" + std::to_string(tile_log2), cell(f), cell(u),
                      formatRate(elems / f.median),
                      fmtF(speedup, 2) + "x", cell(fi), cell(ui),
                      fmtF(inv_over_fwd, 2) + "x"});

            jw.beginObject()
                .field("logN", logN)
                .field("isa", isaPathName(isa))
                .field("isaLanes", isaLaneWidth(isa, sizeof(F)))
                .field("tileLog2", tile_log2)
                .field("fusedNsPerButterfly", fns)
                .field("fusedNsPerButterflyIqr", ns(f.iqr))
                .field("unfusedNsPerButterfly", uns)
                .field("unfusedNsPerButterflyIqr", ns(u.iqr))
                .field("fusedInverseNsPerButterfly", fins)
                .field("fusedInverseNsPerButterflyIqr", ns(fi.iqr))
                .field("unfusedInverseNsPerButterfly", uins)
                .field("unfusedInverseNsPerButterflyIqr", ns(ui.iqr))
                .field("fusedElementsPerSec", elems / f.median)
                .field("unfusedElementsPerSec", elems / u.median)
                .field("speedup", speedup)
                .field("fusedInverseOverForward", inv_over_fwd)
                .field("reruns", reruns)
                .endObject();
        }
    }
    jw.endArray();
    t.print();

    // The ABFT hardening point: clean-machine wall overhead of the
    // compute-path checksums at the largest swept size, on the same
    // pinned configuration under the router's auto path. Tracked in
    // the artifact so the hardening tax trends across commits like
    // the kernel numbers (target: < 10% at 2^22; fig21_abft_overhead
    // gates the multi-GPU case).
    {
        const unsigned logN = log_ns.back();
        Rng rng(4040 + logN);
        std::vector<F> input(1ULL << logN);
        for (auto &v : input)
            v = F::fromU64(rng.next());
        UniNttEngine<F> fused(sys, base_cfg);
        DistributedVector<F> dist[2] = {
            DistributedVector<F>::fromGlobal(input, kGpus),
            DistributedVector<F>::fromGlobal(input, kGpus)};
        // Both arms interleaved, rep by rep, like the points above.
        auto time_once = [&] {
            std::vector<double> sec[2];
            for (int r = -1; r < reps; ++r) { // r == -1 warms up
                for (int abft = 0; abft < 2; ++abft) {
                    ResilienceConfig rc;
                    rc.abft = abft == 1;
                    FaultInjector inj(FaultModel::none());
                    const double s = wallSeconds([&] {
                        if (!fused.forwardResilient(dist[abft], inj, rc)
                                 .ok())
                            fatal("clean resilient forward failed");
                    });
                    if (r >= 0)
                        sec[abft].push_back(s);
                }
            }
            return std::vector<Spread>{Spread(sec[0]), Spread(sec[1])};
        };
        unsigned reruns = 0;
        const std::vector<Spread> sp = timeTightest(time_once, reruns);
        ++points;
        points_rerun += reruns > 0;
        const Spread &off = sp[0], &on = sp[1];
        const double ovh = (on.median / off.median - 1.0) * 100.0;
        std::printf("\nabft point (2^%u): off %s, on %s (medians), "
                    "overhead %.1f%% (target < 10%% at 2^22)\n",
                    logN, formatSeconds(off.median).c_str(),
                    formatSeconds(on.median).c_str(), ovh);
        jw.beginObject("abft")
            .field("logN", logN)
            .field("offSeconds", off.median)
            .field("offSecondsIqr", off.iqr)
            .field("onSeconds", on.median)
            .field("onSecondsIqr", on.iqr)
            .field("overheadPercent", ovh)
            .field("reruns", reruns)
            .endObject();
    }

    writeTextFile(out_path, jw.str());
    std::printf("\n%u of %u points rerun (IQR above %.0f%% of the median, "
                "at most %u more timings each)\n",
                points_rerun, points, kMaxSpread * 100, kMaxReruns);
    std::printf("wrote %s\n", out_path.c_str());

    if (!smoke && min_large_speedup < 1e300)
        std::printf("fused speedup at logN >= 20: %.2fx "
                    "(target >= 1.5x)\n", min_large_speedup);
    if (!smoke && best_fused_ns < 1e300)
        std::printf("best fused ns/butterfly at logN >= 20: %.3f "
                    "(target < 1.5 on a vector path)\n",
                    best_fused_ns);
    if (smoke && !smoke_ok) {
        std::fprintf(stderr, "\nFAIL: fused path more than 10%% slower "
                             "than per-stage in smoke mode (forward or "
                             "inverse)\n");
        return 1;
    }
    return 0;
}
