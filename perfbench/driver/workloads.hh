/**
 * @file
 * The benchmark's workloads and the layer probes of its traced run.
 *
 * Every workload is a closed loop, one operation at a time, on at most
 * two host threads. Every input is derived from the run's seed. Each
 * workload sets up several times (cold host caches each time) and
 * reports every set-up, then runs its timed loop for the requested
 * seconds and checks every output it produced.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** Host threads every workload may use. */
constexpr unsigned kHostThreads = 2;

/** What one run asks for. */
struct RunSpec
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    /**
     * Self-test hook: corrupt this many checked outputs after they are
     * produced, so the failure accounting can be shown to count them.
     */
    unsigned injectWrong = 0;
};

/** Everything one run measured. */
struct RunResult
{
    /** Wall seconds of each cold set-up (construction + first op). */
    std::vector<double> setupS;
    /** Host seconds of each timed operation of the loop. */
    std::vector<double> opS;
    /** Traced run only: host seconds of the loop's traced operations. */
    std::vector<double> tracedOpS;
    /** Wall and CPU seconds of the timed loop. */
    double loopWallS = 0;
    double loopCpuS = 0;
    /** Operations the timed loop completed. */
    uint64_t loopOps = 0;
    /** Checked operations (set-up ones included) and those that failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
    /** What one operation is, for the report. */
    std::string opName;
    /** Workload-specific end-to-end figures (see metrics.json). */
    std::map<std::string, double> extra;
    /** Workload-specific sample lists (e.g. verify times). */
    std::map<std::string, std::vector<double>> samples;
    /** Figures that must repeat exactly under one seed. */
    std::map<std::string, double> deterministic;
    /** Per-layer metrics (traced run) and where each came from. */
    std::map<std::string, double> layers;
    std::map<std::string, std::string> layerSource;

    /** Count one checked operation. */
    void check(bool ok, const std::string &what);

    /** Record a layer metric unless the workload already supplied it. */
    void layer(const std::string &name, double v, const std::string &src);
};

/** Workload entry points. */
void runNttLarge(const RunSpec &spec, Tracer &tr, RunResult &res);
void runNttHardened(const RunSpec &spec, Tracer &tr, RunResult &res);
void runStarkProve(const RunSpec &spec, Tracer &tr, RunResult &res);
void runServiceMix(const RunSpec &spec, Tracer &tr, RunResult &res);

/**
 * Shape a workload's layer probes use: the transform the workload runs
 * (or, for the prover and the service, the one it stands for).
 */
struct ProbeShape
{
    unsigned logN = 16;
    unsigned gpus = 4;
    /** log2 trace length of the prover probes. */
    unsigned logTrace = 10;
    /** Shapes whose cold schedule compile and analytic run are timed. */
    std::vector<unsigned> compileLogNs;
    unsigned compileGpus = 4;
    /** Compile the resilient (ABFT + spot check) schedule variant. */
    bool resilientCompile = false;
};

/**
 * The traced run's layer probes: fill every per-layer metric the
 * workload's own traced loop did not supply.
 */
void runLayerProbes(const ProbeShape &shape, uint64_t seed, Tracer &tr,
                    RunResult &res);

/** Drop every process-wide plan, schedule, twiddle and ABFT cache. */
void clearHostCaches();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
