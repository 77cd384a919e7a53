/**
 * @file
 * Figure 18: host-parallel functional execution.
 *
 * The functional (bit-exact) butterfly work of the simulator runs on
 * the shared host thread pool (util/thread_pool.hh); the simulated
 * timeline is computed on the calling thread either way. This bench
 * sweeps the host thread count on one logN = 20, 4-GPU Goldilocks
 * forward transform and prints the wall-clock speedup over serial
 * execution, verifying two invariants at every point:
 *
 *   1. the output is bit-identical to the serial run, and
 *   2. the simulated timeline (every phase, counter and second) is
 *      identical — parallelism changes who computes, never what.
 *
 * A second table shows the plan/schedule/twiddle cache effect: the
 * same transform with cold caches versus warm ones.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "field/goldilocks.hh"
#include "unintt/cache.hh"
#include "unintt/engine.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace unintt;

namespace {

using F = Goldilocks;

constexpr unsigned kLogN = 20;
constexpr unsigned kGpus = 4;
constexpr int kReps = 3;

struct RunResult
{
    std::vector<F> output;
    SimReport report;
    double bestWallSeconds = 0;
};

/** The simulated content of two reports, element for element. */
bool
simIdentical(const SimReport &a, const SimReport &b)
{
    const auto &pa = a.phases();
    const auto &pb = b.phases();
    if (pa.size() != pb.size())
        return false;
    for (size_t i = 0; i < pa.size(); ++i) {
        const auto &x = pa[i];
        const auto &y = pb[i];
        if (x.name != y.name || x.kind != y.kind ||
            x.seconds != y.seconds || x.hiddenSeconds != y.hiddenSeconds)
            return false;
        if (x.kernel.fieldMuls != y.kernel.fieldMuls ||
            x.kernel.fieldAdds != y.kernel.fieldAdds ||
            x.kernel.butterflies != y.kernel.butterflies ||
            x.kernel.globalReadBytes != y.kernel.globalReadBytes ||
            x.kernel.globalWriteBytes != y.kernel.globalWriteBytes ||
            x.kernel.smemBytes != y.kernel.smemBytes ||
            x.kernel.smemBankConflicts != y.kernel.smemBankConflicts ||
            x.kernel.shuffles != y.kernel.shuffles ||
            x.kernel.syncs != y.kernel.syncs ||
            x.kernel.kernelLaunches != y.kernel.kernelLaunches)
            return false;
        if (x.comm.bytesPerGpu != y.comm.bytesPerGpu ||
            x.comm.messages != y.comm.messages ||
            x.comm.retries != y.comm.retries)
            return false;
    }
    return a.peakDeviceBytes() == b.peakDeviceBytes();
}

RunResult
runOnce(const MultiGpuSystem &sys, const std::vector<F> &input,
        unsigned host_threads, int reps = kReps)
{
    UniNttConfig cfg;
    cfg.hostThreads = host_threads;
    UniNttEngine<F> engine(sys, cfg);

    RunResult r;
    r.bestWallSeconds = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        auto dist = DistributedVector<F>::fromGlobal(input, sys.numGpus);
        auto t0 = std::chrono::steady_clock::now();
        SimReport rep_out = engine.forward(dist);
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (wall < r.bestWallSeconds) {
            r.bestWallSeconds = wall;
            r.report = rep_out;
        }
        if (rep == 0)
            r.output = dist.toGlobal();
    }
    return r;
}

} // namespace

int
main()
{
    benchHeader("Figure 18",
                "host-parallel functional execution, speedup vs threads");
    auto sys = makeDgxA100(kGpus);
    verifyOrDie<F>(sys);

    Rng rng(777);
    std::vector<F> input(1ULL << kLogN);
    for (auto &v : input)
        v = F::fromU64(rng.next());

    // Warm the plan/twiddle caches so the sweep times butterfly work,
    // not one-off root-of-unity generation.
    runOnce(sys, input, 1);

    std::printf("transform: 2^%u Goldilocks forward on %s\n",
                kLogN, sys.description().c_str());
    std::printf("host machine: %u hardware threads\n\n",
                ThreadPool::defaultLanes());

    RunResult serial = runOnce(sys, input, 1);

    Table t({"host threads", "wall clock", "speedup", "bits identical",
             "sim events identical"});
    double best_speedup = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        RunResult r = runOnce(sys, input, threads);
        bool bits_ok = r.output == serial.output;
        bool sim_ok = simIdentical(r.report, serial.report);
        if (!bits_ok)
            fatal("output at %u host threads differs from serial",
                  threads);
        if (!sim_ok)
            fatal("simulated events at %u host threads differ from "
                  "serial", threads);
        double speedup = serial.bestWallSeconds / r.bestWallSeconds;
        if (threads >= 4 && speedup > best_speedup)
            best_speedup = speedup;
        t.addRow({std::to_string(threads),
                  formatSeconds(r.bestWallSeconds),
                  fmtF(speedup, 2) + "x", bits_ok ? "yes" : "NO",
                  sim_ok ? "yes" : "NO"});
    }
    t.print();

    std::printf("\nbest speedup at >= 4 host threads: %.2fx "
                "(target >= 2x on a >= 4-core host)\n", best_speedup);
    if (ThreadPool::defaultLanes() < 4)
        std::printf("note: this host exposes only %u hardware threads; "
                    "the target applies to >= 4-core machines\n",
                    ThreadPool::defaultLanes());

    // Cache effect: identical transform, cold vs warm caches. The
    // slab cache fills from the twiddle-table cache, so a cold run
    // misses both; a warm run hits the slab and never consults the
    // table.
    PlanCache::global().clear();
    ScheduleCache::global().clear();
    TwiddleCache<F>::global().clear();
    TwiddleSlabCache<F>::global().clear();
    RunResult cold = runOnce(sys, input, 0, 1);
    RunResult warm = runOnce(sys, input, 0, 1);
    if (cold.output != warm.output)
        fatal("cold-cache output differs from warm-cache output");

    const auto &cold_hx = cold.report.hostExecStats();
    const auto &warm_hx = warm.report.hostExecStats();
    std::printf("\ncache effect (single run each):\n");
    Table c({"caches", "plan", "schedule", "twiddle", "twiddle slabs",
             "wall clock"});
    auto hitmiss = [](uint64_t h, uint64_t m) {
        return std::to_string(h) + " hit/" + std::to_string(m) + " miss";
    };
    c.addRow({"cold",
              hitmiss(cold_hx.planCacheHits, cold_hx.planCacheMisses),
              hitmiss(cold_hx.scheduleCacheHits,
                      cold_hx.scheduleCacheMisses),
              hitmiss(cold_hx.twiddleCacheHits,
                      cold_hx.twiddleCacheMisses),
              hitmiss(cold_hx.twiddleSlabHits,
                      cold_hx.twiddleSlabMisses),
              formatSeconds(cold.bestWallSeconds)});
    c.addRow({"warm",
              hitmiss(warm_hx.planCacheHits, warm_hx.planCacheMisses),
              hitmiss(warm_hx.scheduleCacheHits,
                      warm_hx.scheduleCacheMisses),
              hitmiss(warm_hx.twiddleCacheHits,
                      warm_hx.twiddleCacheMisses),
              hitmiss(warm_hx.twiddleSlabHits,
                      warm_hx.twiddleSlabMisses),
              formatSeconds(warm.bestWallSeconds)});
    c.print();
    return 0;
}
