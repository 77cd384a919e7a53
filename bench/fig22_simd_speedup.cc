/**
 * @file
 * Figure 22 (new experiment): SIMD span-kernel speedup.
 *
 * Sweeps one pinned host configuration — one GPU chunk, one host
 * thread, fused local passes — over transform sizes, once per
 * acceleration path the router can bind (field/dispatch.hh), for
 * Goldilocks and BabyBear. Each vector path's output is checked
 * bit-identical against the forced-scalar engine before timing; the
 * paths of one size are then timed interleaved, rep by rep, and the
 * bench reports the median ns per butterfly and the vector-over-scalar
 * speedup of the medians per (field, logN, isa) cell.
 *
 * Hard gate: at every swept size every vector path must be at least
 * as fast as forced scalar (ratio >= 1.0x). A vector path losing to
 * scalar means the router would bind a pessimization, so the bench
 * exits non-zero. The smallest size, 2^12, is one tile whose
 * sub-lane stages run transposed in registers (field/kernels.hh).
 *
 * Flags:
 *   --smoke   two sizes for CI, 2^12 and 2^16, both gated.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "field/babybear.hh"
#include "field/dispatch.hh"
#include "field/goldilocks.hh"
#include "unintt/engine.hh"
#include "util/stats.hh"
#include "util/table.hh"

using namespace unintt;

namespace {

constexpr unsigned kGpus = 1;

double
nsPerButterfly(double seconds, unsigned logN)
{
    const double butterflies =
        static_cast<double>(logN) *
        static_cast<double>(1ULL << logN) / 2.0;
    return seconds * 1e9 / butterflies;
}

/**
 * Sweep one field: per logN time forced scalar and every vector
 * engine, interleaved, and record each vector path's speedup. Returns
 * false if any vector path is slower than scalar.
 */
template <NttField F>
bool
sweepField(const MultiGpuSystem &sys, Table &t,
           const std::vector<unsigned> &log_ns, int reps)
{
    std::vector<IsaPath> vec_paths;
    for (IsaPath p : availableIsaPaths())
        if (p != IsaPath::Scalar &&
            isaLaneWidth(p, sizeof(F)) > 1)
            vec_paths.push_back(p);
    if (vec_paths.empty()) {
        std::printf("%s: no vector path available on this host, "
                    "nothing to gate\n", F::kName);
        return true;
    }

    UniNttConfig scalar_cfg;
    scalar_cfg.hostThreads = 1;
    scalar_cfg.isaPath = IsaPath::Scalar;
    UniNttEngine<F> scalar(sys, scalar_cfg);
    std::vector<std::unique_ptr<UniNttEngine<F>>> vec;
    for (IsaPath isa : vec_paths) {
        UniNttConfig cfg = scalar_cfg;
        cfg.isaPath = isa;
        vec.push_back(std::make_unique<UniNttEngine<F>>(sys, cfg));
    }

    bool ok = true;
    for (unsigned logN : log_ns) {
        Rng rng(2222 + logN);
        std::vector<F> input(1ULL << logN);
        for (auto &v : input)
            v = F::fromU64(rng.next());

        // engines[0] is scalar; every engine's first forward doubles
        // as its warm-up and, for a vector path, its byte check.
        std::vector<UniNttEngine<F> *> engines{&scalar};
        for (auto &e : vec)
            engines.push_back(e.get());
        std::vector<DistributedVector<F>> dist;
        std::vector<F> ref;
        for (size_t k = 0; k < engines.size(); ++k) {
            dist.push_back(DistributedVector<F>::fromGlobal(input, kGpus));
            engines[k]->forward(dist[k]);
            if (k == 0)
                ref = dist[k].toGlobal();
            else if (dist[k].toGlobal() != ref)
                fatal("%s %s output differs from scalar at 2^%u",
                      F::kName, isaPathName(vec_paths[k - 1]), logN);
        }
        std::vector<std::vector<double>> sec(engines.size());
        for (int r = 0; r < reps; ++r)
            for (size_t k = 0; k < engines.size(); ++k)
                sec[k].push_back(
                    wallSeconds([&] { engines[k]->forward(dist[k]); }));

        const double ssec = Spread(sec[0]).median;
        for (size_t k = 1; k < engines.size(); ++k) {
            const IsaPath isa = vec_paths[k - 1];
            const double vsec = Spread(sec[k]).median;
            const double speedup = ssec / vsec;
            const bool lost = speedup < 1.0;
            if (lost)
                ok = false;

            t.addRow({F::kName, std::to_string(logN),
                      isaPathName(isa),
                      std::to_string(isaLaneWidth(isa, sizeof(F))),
                      fmtF(nsPerButterfly(ssec, logN), 3),
                      fmtF(nsPerButterfly(vsec, logN), 3),
                      fmtF(speedup, 2) + "x", lost ? "FAIL" : "ok"});
        }
    }
    return ok;
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

    benchHeader("Figure 22",
                "SIMD span-kernel speedup: forced-scalar vs vector "
                "acceleration paths");
    auto sys = makeDgxA100(kGpus);
    verifyOrDie<Goldilocks>(sys);
    std::printf("%s\n", routerDescription().c_str());

    const std::vector<unsigned> log_ns =
        smoke ? std::vector<unsigned>{12, 16}
              : std::vector<unsigned>{12, 14, 16, 18, 20, 22};
    const int reps = smoke ? 7 : 9;
    std::printf("pinned: %s, 1 host thread, median of %d interleaved "
                "reps; gate: vector >= scalar at every size\n\n",
                sys.description().c_str(), reps);

    Table t({"field", "logN", "isa", "lanes", "scalar ns/bfly",
             "vector ns/bfly", "speedup", "gate"});
    bool ok = sweepField<Goldilocks>(sys, t, log_ns, reps);
    ok = sweepField<BabyBear>(sys, t, log_ns, reps) && ok;
    t.print();

    if (!ok) {
        std::fprintf(stderr,
                     "\nFAIL: a vector path lost to forced scalar — the "
                     "router would bind a pessimization\n");
        return 1;
    }
    std::printf("\nOK: every vector path at least matches scalar at "
                "every swept size\n");
    return 0;
}
