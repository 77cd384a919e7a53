/**
 * @file
 * Figure 7: single-GPU NTT throughput versus transform size for the
 * naive stage-per-kernel baseline, the Icicle-class tiled baseline and
 * UniNTT's single-GPU configuration, on Goldilocks and BN254-Fr.
 * Throughput is elements per second of simulated time.
 */

#include <cstdio>

#include "baselines/icicle_like.hh"
#include "baselines/naive_gpu.hh"
#include "bench/bench_util.hh"
#include "field/bn254.hh"
#include "field/goldilocks.hh"
#include "unintt/engine.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace unintt {
namespace {

template <NttField F>
void
sweepField(const char *field_name)
{
    auto sys = makeDgxA100(1);
    UniNttEngine<F> unintt(sys);
    NaiveGpuNtt<F> naive(sys.gpu);
    IcicleLikeNtt<F> icicle(sys.gpu);

    Table t({"field", "log2(N)", "naive", "icicle-like", "UniNTT",
             "UniNTT vs naive", "UniNTT vs icicle"});
    for (unsigned logN = 12; logN <= 26; logN += 2) {
        double n = static_cast<double>(1ULL << logN);
        double t_naive =
            naive.analyticRun(logN, NttDirection::Forward).totalSeconds();
        double t_icicle =
            icicle.analyticRun(logN, NttDirection::Forward).totalSeconds();
        double t_uni =
            unintt.analyticRun(logN, NttDirection::Forward).totalSeconds();
        t.addRow({field_name, std::to_string(logN),
                  formatRate(n / t_naive), formatRate(n / t_icicle),
                  formatRate(n / t_uni), fmtX(t_naive / t_uni),
                  fmtX(t_icicle / t_uni)});
    }
    t.print();
    std::printf("\n");
}

} // namespace
} // namespace unintt

int
main()
{
    using namespace unintt;
    benchHeader("Figure 7", "single-GPU NTT throughput vs size");
    verifyOrDie<Goldilocks>(makeDgxA100(1));
    sweepField<Goldilocks>("Goldilocks");
    sweepField<Bn254Fr>("BN254-Fr");
    return 0;
}
