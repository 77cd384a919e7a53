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
 * forced-scalar engine on the same input, per direction; the harness
 * then reports ns per butterfly, elements per second, and the fused
 * speedup, and writes the machine-readable BENCH_host_ntt.json that
 * scripts/bench.sh (and CI in --smoke mode) diff across commits.
 *
 * Flags:
 *   --smoke      tiny sizes for CI; exits non-zero if the fused path
 *                is more than 10% slower than the per-stage path in
 *                either direction.
 *   --out=PATH   where to write the JSON (default BENCH_host_ntt.json).
 */

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

/** Best-of-reps wall seconds of one transform in direction @p dir. */
double
timeTransform(UniNttEngine<F> &engine, const std::vector<F> &input,
              NttDirection dir, int reps)
{
    auto dist = DistributedVector<F>::fromGlobal(input, kGpus);
    runTransform(engine, dist, dir); // warm plan/schedule/twiddle caches
    return bestWallSeconds(reps,
                           [&] { runTransform(engine, dist, dir); });
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

    const std::vector<unsigned> log_ns =
        smoke ? std::vector<unsigned>{14, 16}
              : std::vector<unsigned>{20, 22, 24};
    const int reps = smoke ? 2 : 5;
    const std::vector<IsaPath> paths = availableIsaPaths();

    UniNttConfig base_cfg;
    base_cfg.hostThreads = 1;

    std::printf("pinned: %s, %u host thread, best of %d reps\n\n",
                sys.description().c_str(), base_cfg.hostThreads, reps);

    JsonWriter jw;
    jw.field("bench", "host_ntt")
        .field("field", F::kName)
        .field("gpus", kGpus)
        .field("hostThreads", base_cfg.hostThreads)
        .field("router", isaPathName(resolveIsaPath(IsaPath::Auto)))
        .field("smoke", smoke)
        .beginArray("points");

    // Scalar reference engine: every path's bytes must match its
    // output before that path's timing is worth reporting.
    UniNttConfig scalar_cfg = base_cfg;
    scalar_cfg.isaPath = IsaPath::Scalar;
    UniNttEngine<F> scalar_ref(sys, scalar_cfg);

    Table t({"logN", "isa", "tile", "fused ns/bfly",
             "per-stage ns/bfly", "fused elem/s", "speedup",
             "inv fused ns/bfly", "inv per-stage ns/bfly"});
    bool smoke_ok = true;
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

            const double fsec = timeTransform(
                fused, input, NttDirection::Forward, reps);
            const double usec = timeTransform(
                unfused, input, NttDirection::Forward, reps);
            const double fns = nsPerButterfly(fsec, logN);
            const double uns = nsPerButterfly(usec, logN);
            const double fins = nsPerButterfly(
                timeTransform(fused, input, NttDirection::Inverse, reps),
                logN);
            const double uins = nsPerButterfly(
                timeTransform(unfused, input, NttDirection::Inverse,
                              reps),
                logN);
            const double elems = static_cast<double>(1ULL << logN);
            const double speedup = uns / fns;
            if (smoke && (fns > 1.10 * uns || fins > 1.10 * uins))
                smoke_ok = false;
            if (logN >= 20)
                min_large_speedup =
                    std::min(min_large_speedup, speedup);
            if (logN >= 20)
                best_fused_ns = std::min(best_fused_ns, fns);

            t.addRow({std::to_string(logN), isaPathName(isa),
                      "2^" + std::to_string(tile_log2), fmtF(fns, 3),
                      fmtF(uns, 3), formatRate(elems / fsec),
                      fmtF(speedup, 2) + "x", fmtF(fins, 3),
                      fmtF(uins, 3)});

            jw.beginObject()
                .field("logN", logN)
                .field("isa", isaPathName(isa))
                .field("isaLanes", isaLaneWidth(isa, sizeof(F)))
                .field("tileLog2", tile_log2)
                .field("fusedNsPerButterfly", fns)
                .field("unfusedNsPerButterfly", uns)
                .field("fusedInverseNsPerButterfly", fins)
                .field("unfusedInverseNsPerButterfly", uins)
                .field("fusedElementsPerSec", elems / fsec)
                .field("unfusedElementsPerSec", elems / usec)
                .field("speedup", speedup)
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
        auto timeResilient = [&](bool abft) {
            ResilienceConfig rc;
            rc.abft = abft;
            auto dist =
                DistributedVector<F>::fromGlobal(input, kGpus);
            FaultInjector warm(FaultModel::none());
            if (!fused.forwardResilient(dist, warm, rc).ok())
                fatal("resilient warmup failed");
            return bestWallSeconds(reps, [&] {
                FaultInjector inj(FaultModel::none());
                (void)fused.forwardResilient(dist, inj, rc);
            });
        };
        const double off_sec = timeResilient(false);
        const double on_sec = timeResilient(true);
        const double ovh = (on_sec / off_sec - 1.0) * 100.0;
        std::printf("\nabft point (2^%u): off %s, on %s, overhead "
                    "%.1f%% (target < 10%% at 2^22)\n",
                    logN, formatSeconds(off_sec).c_str(),
                    formatSeconds(on_sec).c_str(), ovh);
        jw.beginObject("abft")
            .field("logN", logN)
            .field("offSeconds", off_sec)
            .field("onSeconds", on_sec)
            .field("overheadPercent", ovh)
            .endObject();
    }

    writeTextFile(out_path, jw.str());
    std::printf("\nwrote %s\n", out_path.c_str());

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
