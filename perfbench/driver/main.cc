/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints one JSON
 * document (raw samples, checks, host facts, per-layer metrics) as the
 * last line of stdout. perfbench/run.py turns it into the benchmark's
 * metrics; run that, not this, to benchmark the repository.
 *
 *   perfbench_driver --workload ntt-large --seed 1 --seconds 10
 *                    [--trace 0|1] [--trace-out FILE] [--inject-wrong N]
 *
 * Exit status: 0 when every checked output was correct, 1 when any was
 * wrong (the document still reports them), 2 on a usage error.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "field/dispatch.hh"
#include "util/thread_pool.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "{ntt-large|ntt-hardened|stark-prove|service-mix} --seed N "
                 "--seconds S [--trace 0|1] [--trace-out FILE] "
                 "[--inject-wrong N]\n",
                 why);
    return 2;
}

Json
hostFacts()
{
    Json h;
    h.str("router", unintt::routerDescription());
    h.integer("nproc", std::thread::hardware_concurrency());
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    h.num("l3_mib", l3 > 0 ? l3 / 1048576.0 : -1);
    h.str("compiler", PERFBENCH_COMPILER);
    h.str("build_type", PERFBENCH_BUILD_TYPE);
    h.integer("host_threads", kHostThreads);
    h.str("tunedb", "off");
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec spec;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            spec.workload = v;
        } else if (a == "--seed") {
            spec.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            spec.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            spec.traced = std::strcmp(v, "0") != 0;
        } else if (a == "--trace-out") {
            trace_out = v;
        } else if (a == "--inject-wrong") {
            spec.injectWrong =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }
    if (spec.workload.empty())
        return usage("--workload is required");

    // Pin the environment every number depends on: the tuning DB off
    // (the variable would otherwise override the config), the CPU probe
    // unforced, and a two-lane host pool.
    setenv("UNINTT_TUNEDB", "off", 1);
    unsetenv("UNINTT_FORCE_ISA");
    unintt::ThreadPool::setGlobalThreads(kHostThreads);

    void (*run)(const RunSpec &, Tracer &, RunResult &) = nullptr;
    if (spec.workload == "ntt-large")
        run = runNttLarge;
    else if (spec.workload == "ntt-hardened")
        run = runNttHardened;
    else if (spec.workload == "stark-prove")
        run = runStarkProve;
    else if (spec.workload == "service-mix")
        run = runServiceMix;
    else
        return usage(("unknown workload " + spec.workload).c_str());

    Tracer tracer(spec.traced);
    RunResult res;
    run(spec, tracer, res);
    if (!trace_out.empty() && tracer.enabled() &&
        !tracer.writeChromeTrace(trace_out))
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     trace_out.c_str());

    Json doc;
    doc.str("workload", spec.workload);
    doc.integer("seed", spec.seed);
    doc.boolean("traced", spec.traced);
    doc.str("op", res.opName);
    doc.obj("host", hostFacts());
    doc.integer("attempted", res.attempted);
    doc.integer("failed", res.failed);
    doc.strs("failures", res.failures);
    doc.nums("setup_s", res.setupS);
    doc.nums("op_s", res.opS);
    doc.nums("traced_op_s", res.tracedOpS);
    doc.num("loop_wall_s", res.loopWallS);
    doc.integer("loop_ops", res.loopOps);
    doc.num("peak_rss_mib", peakRssMib());
    doc.numMap("extra", res.extra);
    Json samples;
    for (const auto &kv : res.samples)
        samples.nums(kv.first, kv.second);
    doc.obj("samples", samples);
    doc.numMap("deterministic", res.deterministic);
    doc.numMap("layers", res.layers);
    doc.strMap("layer_source", res.layerSource);
    std::printf("%s\n", doc.dump().c_str());
    return res.failed == 0 ? 0 : 1;
}
