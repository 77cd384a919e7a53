/**
 * @file
 * Figure 23 (new experiment): autotuned vs heuristic schedules.
 *
 * For every (field, logN) cell the bench runs the schedule autotuner
 * (unintt/tuner.hh) against the functional executor on a 4-GPU
 * machine, persists the winner into a scratch tuning DB (in the
 * system temp directory), and then re-times two fresh engines on the
 * same seeded input: one consulting that DB (provenance-checked: the
 * engine must actually report a DB hit) and one pinned to the
 * heuristic. The tuned output is first checked bit-identical against
 * the heuristic output — the tuner may only move knobs that cannot
 * change bytes.
 *
 * Each side is timed as the median of kSamples interleaved samples,
 * each a batch of back-to-back forwards lasting at least
 * kSampleSeconds: a single 40-300 us forward is too short to resolve
 * the 3% tolerance against scheduler noise.
 *
 * Hard gates (exit non-zero):
 *   - every tuned point must be at least as fast as its heuristic
 *     baseline (within a small noise tolerance), because a DB whose
 *     entries lose to the fallback is worse than no DB;
 *   - at least one swept point must improve by >= 5%, because an
 *     autotuner that never finds anything is dead weight.
 *
 * Flags:
 *   --smoke   tiny sizes for CI (keeps both gates armed).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "field/babybear.hh"
#include "field/dispatch.hh"
#include "field/goldilocks.hh"
#include "unintt/engine.hh"
#include "unintt/tunedb.hh"
#include "unintt/tuner.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace unintt;

namespace {

constexpr unsigned kGpus = 4;
constexpr double kNoiseTolerance = 1.03;
constexpr int kSamples = 7;
constexpr double kSampleSeconds = 0.020;

/**
 * Seconds per call of @p fn over one timing sample: calls run back to
 * back until the sample has lasted kSampleSeconds.
 */
template <typename Fn>
double
sampleSeconds(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    unsigned calls = 0;
    double elapsed = 0.0;
    do {
        fn();
        ++calls;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    } while (elapsed < kSampleSeconds);
    return elapsed / calls;
}

double
nsPerButterfly(double seconds, unsigned logN)
{
    const double butterflies =
        static_cast<double>(logN) *
        static_cast<double>(1ULL << logN) / 2.0;
    return seconds * 1e9 / butterflies;
}

/**
 * Tune then re-time one field. Appends per-point rows; returns the
 * per-point tuned/heuristic second pairs for the gates.
 */
template <NttField F>
void
sweepField(const MultiGpuSystem &sys, TuningDb &db,
           const std::string &db_path, Table &t,
           const std::vector<unsigned> &log_ns, int reps,
           std::vector<std::pair<double, double>> &points)
{
    UniNttConfig base;
    base.hostThreads = 1;
    base.useTuneDb = false;

    for (unsigned logN : log_ns) {
        // 1. Tune this key into the scratch DB.
        TuneRequest req;
        req.logN = logN;
        req.sys = sys;
        req.reps = static_cast<unsigned>(reps);
        req.base = base;
        TuneOutcome o = tuneOne<F>(req, TuneSpace::defaults());
        db.put(o.entry);
        if (!db.saveFile(db_path))
            fatal("cannot write %s", db_path.c_str());
        invalidateTuneDbCache();

        // 2. Fresh engines: DB-consulting vs pinned-heuristic.
        UniNttConfig tuned_cfg = base;
        tuned_cfg.useTuneDb = true;
        tuned_cfg.tuneDbPath = db_path;
        UniNttEngine<F> tuned(sys, tuned_cfg);
        UniNttEngine<F> heur(sys, base);

        bool db_hit = false;
        (void)tuned.schedule(logN, NttDirection::Forward, 1, nullptr,
                             nullptr, &db_hit);
        if (!db_hit)
            fatal("%s 2^%u: engine missed the DB entry the tuner "
                  "just wrote", F::kName, logN);

        Rng rng(2323 + logN);
        std::vector<F> input(1ULL << logN);
        for (auto &v : input)
            v = F::fromU64(rng.next());

        // Byte-identity: tuning must never change the transform.
        auto dh = DistributedVector<F>::fromGlobal(input, kGpus);
        auto dt = DistributedVector<F>::fromGlobal(input, kGpus);
        heur.forward(dh);
        tuned.forward(dt);
        if (dh.toGlobal() != dt.toGlobal())
            fatal("%s 2^%u: tuned output differs from heuristic",
                  F::kName, logN);

        auto run = DistributedVector<F>::fromGlobal(input, kGpus);
        std::vector<double> hs, ts;
        for (int i = 0; i < kSamples; ++i) {
            hs.push_back(sampleSeconds([&] { heur.forward(run); }));
            ts.push_back(sampleSeconds([&] { tuned.forward(run); }));
        }
        const double hsec = percentile(hs, 50);
        const double tsec = percentile(ts, 50);
        points.emplace_back(tsec, hsec);

        const double gain = (hsec - tsec) / hsec * 100.0;
        t.addRow({F::kName, std::to_string(logN),
                  o.entry.params.toString(),
                  fmtF(nsPerButterfly(hsec, logN), 3),
                  fmtF(nsPerButterfly(tsec, logN), 3),
                  fmtF(gain, 1) + "%",
                  tsec <= hsec * kNoiseTolerance ? "ok" : "FAIL"});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            fatal("unknown flag '%s' (--smoke)", argv[i]);
    }

    benchHeader("Figure 23",
                "schedule autotuner: tuned vs heuristic wall time per "
                "(field, logN)");
    auto sys = makeDgxA100(kGpus);
    verifyOrDie<Goldilocks>(sys);
    std::printf("%s\n", routerDescription().c_str());

    const std::vector<unsigned> log_ns =
        smoke ? std::vector<unsigned>{12, 14}
              : std::vector<unsigned>{14, 16, 18};
    const int reps = smoke ? 2 : 5;
    std::printf("%u GPUs, 1 host thread, tuner median of %d reps, "
                "median of %d interleaved >=%.0f ms samples; gates: "
                "no tuned point loses (>%.0f%% noise), >=1 point "
                "gains >=5%%\n\n",
                kGpus, reps, kSamples, kSampleSeconds * 1e3,
                (kNoiseTolerance - 1.0) * 100.0);

    // The scratch DB the sweep tunes into, outside the checkout.
    const std::string db_path =
        (std::filesystem::temp_directory_path() / "fig23_tunedb.json")
            .string();
    TuningDb db;
    Table t({"field", "logN", "winner", "heuristic ns/bfly",
             "tuned ns/bfly", "gain", "gate"});
    std::vector<std::pair<double, double>> points;
    sweepField<Goldilocks>(sys, db, db_path, t, log_ns, reps, points);
    sweepField<BabyBear>(sys, db, db_path, t, log_ns, reps, points);
    t.print();
    std::filesystem::remove(db_path);

    bool none_lose = true;
    double best_gain = 0;
    for (const auto &[tsec, hsec] : points) {
        if (tsec > hsec * kNoiseTolerance)
            none_lose = false;
        best_gain = std::max(best_gain, (hsec - tsec) / hsec * 100.0);
    }
    std::printf("\nbest tuned gain: %.1f%% over %zu points\n",
                best_gain, points.size());

    if (!none_lose) {
        std::fprintf(stderr,
                     "\nFAIL: a tuned schedule lost to the heuristic "
                     "beyond the %.0f%% noise tolerance\n",
                     (kNoiseTolerance - 1.0) * 100.0);
        return 1;
    }
    if (best_gain < 5.0) {
        std::fprintf(stderr,
                     "\nFAIL: no swept point improved by >= 5%% — the "
                     "tuner found nothing\n");
        return 1;
    }
    std::printf("OK: tuned >= heuristic everywhere, best gain "
                "%.1f%%\n", best_gain);
    return 0;
}
