/**
 * @file
 * Figure 10: inter-GPU communication of UniNTT versus the four-step
 * baseline: bytes each GPU puts on the fabric, message counts, and the
 * visible (non-overlapped) communication time. UniNTT moves
 * log2(G) * chunk bytes in large contiguous pairwise messages that
 * overlap with compute; four-step moves ~2 * chunk bytes but as
 * congested all-to-all rounds that cannot be hidden.
 */

#include <cstdio>

#include "baselines/fourstep_multigpu.hh"
#include "bench/bench_util.hh"
#include "field/goldilocks.hh"
#include "util/stats.hh"
#include "util/table.hh"

int
main()
{
    using namespace unintt;
    using F = Goldilocks;
    benchHeader("Figure 10", "inter-GPU communication volume and time");
    verifyOrDie<F>(makeDgxA100(4));

    for (auto fabric : {makeNvSwitchFabric(), makePcieFabric()}) {
        Table t({"fabric", "GPUs", "log2(N)", "algo", "bytes/GPU",
                 "messages", "visible comm", "hidden comm",
                 "comm share"});
        for (unsigned gpus : {2u, 4u, 8u}) {
            for (unsigned logN : {24u, 28u}) {
                MultiGpuSystem sys{makeA100(), fabric, gpus};
                UniNttEngine<F> uni(sys);
                FourStepMultiGpuNtt<F> four(sys);

                auto ru = uni.analyticRun(logN, NttDirection::Forward);
                auto rf = four.analyticRun(logN, NttDirection::Forward);

                auto hidden = [](const SimReport &r) {
                    double h = 0;
                    for (const auto &p : r.phases())
                        h += p.hiddenSeconds;
                    return h;
                };
                auto row = [&](const char *algo, const SimReport &r) {
                    t.addRow({toString(fabric.kind), std::to_string(gpus),
                              std::to_string(logN), algo,
                              formatBytes(static_cast<double>(
                                  r.totalCommStats().bytesPerGpu)),
                              std::to_string(r.totalCommStats().messages),
                              formatSeconds(r.commSeconds()),
                              formatSeconds(hidden(r)),
                              fmtF(r.commSeconds() / r.totalSeconds() *
                                       100, 1) + "%"});
                };
                row("UniNTT", ru);
                row("four-step", rf);
            }
            t.addSeparator();
        }
        t.print();
        std::printf("\n");
    }

    // DAG overlap: with the wave dispatch on, each wave is priced as
    // max(comm, compute) instead of their sum, so the overlapped
    // makespan must come in strictly below the linear schedule at
    // identical fabric bytes and message counts. The gate fails the
    // bench (and CI) if either half of that claim breaks.
    std::printf("DAG overlap vs linear dispatch (NVSwitch):\n");
    Table to({"GPUs", "log2(N)", "dispatch", "waves", "total",
              "visible comm", "bytes/GPU", "messages"});
    for (unsigned gpus : {4u, 8u}) {
        MultiGpuSystem sys{makeA100(), makeNvSwitchFabric(), gpus};
        for (unsigned logN : {22u, 24u}) {
            UniNttConfig lin;
            lin.overlapComm = false;
            UniNttEngine<F> dag_eng(sys);
            UniNttEngine<F> lin_eng(sys, lin);
            auto rd = dag_eng.analyticRun(logN, NttDirection::Forward);
            auto rl = lin_eng.analyticRun(logN, NttDirection::Forward);
            auto row = [&](const char *name, const SimReport &r) {
                to.addRow({std::to_string(gpus), std::to_string(logN),
                           name,
                           std::to_string(r.hostExecStats().overlapWaves),
                           formatSeconds(r.totalSeconds()),
                           formatSeconds(r.commSeconds()),
                           formatBytes(static_cast<double>(
                               r.totalCommStats().bytesPerGpu)),
                           std::to_string(r.totalCommStats().messages)});
            };
            row("dag-overlap", rd);
            row("linear", rl);
            if (rd.totalSeconds() >= rl.totalSeconds())
                fatal("overlap gate: DAG makespan not below linear at "
                      "2^%u on %u GPUs", logN, gpus);
            if (rd.totalCommStats().bytesPerGpu !=
                    rl.totalCommStats().bytesPerGpu ||
                rd.totalCommStats().messages !=
                    rl.totalCommStats().messages)
                fatal("overlap gate: fabric ledger changed under the "
                      "DAG dispatch at 2^%u on %u GPUs", logN, gpus);
        }
        to.addSeparator();
    }
    to.print();
    std::printf("\n");

    // Local-pass fusion moves butterflies between kernels, not between
    // GPUs: the fused schedule touches DRAM less (one round trip per
    // fused group instead of per stage) while the fabric sees exactly
    // the same bytes and message count.
    std::printf("fused local passes vs per-stage (NVSwitch, 2^26):\n");
    Table tf({"GPUs", "schedule", "DRAM bytes", "kernel launches",
              "bytes/GPU", "messages"});
    for (unsigned gpus : {2u, 4u, 8u}) {
        MultiGpuSystem sys{makeA100(), makeNvSwitchFabric(), gpus};
        for (bool fuse : {true, false}) {
            UniNttConfig cfg;
            cfg.fuseLocalPasses = fuse;
            UniNttEngine<F> engine(sys, cfg);
            auto r = engine.analyticRun(26, NttDirection::Forward);
            auto k = r.totalKernelStats();
            auto c = r.totalCommStats();
            tf.addRow({std::to_string(gpus),
                       fuse ? "fused" : "per-stage",
                       formatBytes(static_cast<double>(k.globalBytes())),
                       std::to_string(k.kernelLaunches),
                       formatBytes(static_cast<double>(c.bytesPerGpu)),
                       std::to_string(c.messages)});
        }
        tf.addSeparator();
    }
    tf.print();
    return 0;
}
