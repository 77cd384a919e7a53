/**
 * @file
 * Figure 9 (headline): UniNTT speedup over the conventional multi-GPU
 * NTT (four-step with all-to-all transposes) across transform sizes,
 * GPU counts and fabrics. The abstract reports an average 4.26x over
 * the baseline; this bench prints the per-configuration speedups and
 * their geometric mean.
 */

#include <cstdio>
#include <vector>

#include "baselines/fourstep_multigpu.hh"
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
sweepField(const char *field_name, std::vector<double> &vs_tuned,
           std::vector<double> &vs_prior)
{
    Table table({"field", "fabric", "GPUs", "log2(N)", "prior-art 4step",
                 "tuned 4step", "UniNTT", "vs prior", "vs tuned"});
    struct FabricChoice
    {
        const char *name;
        Interconnect fabric;
    };
    const FabricChoice fabrics[] = {
        {"nvswitch", makeNvSwitchFabric()},
        {"pcie", makePcieFabric()},
    };

    for (const auto &fc : fabrics) {
        for (unsigned gpus : {4u, 8u}) {
            for (unsigned logN : {22u, 24u, 26u, 28u}) {
                MultiGpuSystem sys{makeA100(), fc.fabric, gpus};
                UniNttEngine<F> unintt(sys);
                FourStepMultiGpuNtt<F> tuned(sys, FourStepOptions::tuned());
                FourStepMultiGpuNtt<F> prior(sys,
                                             FourStepOptions::priorArt());
                double t_prior =
                    prior.analyticRun(logN, NttDirection::Forward)
                        .totalSeconds();
                double t_tuned =
                    tuned.analyticRun(logN, NttDirection::Forward)
                        .totalSeconds();
                double t_uni =
                    unintt.analyticRun(logN, NttDirection::Forward)
                        .totalSeconds();
                vs_tuned.push_back(t_tuned / t_uni);
                vs_prior.push_back(t_prior / t_uni);
                table.addRow({field_name, fc.name, std::to_string(gpus),
                              std::to_string(logN),
                              formatSeconds(t_prior),
                              formatSeconds(t_tuned),
                              formatSeconds(t_uni),
                              fmtX(t_prior / t_uni),
                              fmtX(t_tuned / t_uni)});
            }
            table.addSeparator();
        }
    }
    table.print();
}

} // namespace
} // namespace unintt

int
main()
{
    using namespace unintt;
    benchHeader("Figure 9",
                "UniNTT speedup over four-step multi-GPU NTT (headline)");
    verifyOrDie<Goldilocks>(makeDgxA100(4));

    std::vector<double> vs_tuned, vs_prior;
    sweepField<Goldilocks>("Goldilocks", vs_tuned, vs_prior);
    std::printf("\n");
    sweepField<Bn254Fr>("BN254-Fr", vs_tuned, vs_prior);

    std::printf("\ngeomean speedup vs prior-art four-step: %s\n",
                fmtX(geomean(vs_prior)).c_str());
    std::printf("geomean speedup vs tuned four-step:     %s\n",
                fmtX(geomean(vs_tuned)).c_str());
    std::printf("paper (abstract) reports: 4.26x average over its "
                "baseline\n");
    return 0;
}
