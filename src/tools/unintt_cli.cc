/**
 * @file
 * unintt-cli: command-line front end over the simulation library.
 *
 *   unintt-cli plan     --log-n=24 --gpus=4 [--gpu=a100]
 *   unintt-cli schedule --log-n=24 --gpus=4 [--inverse] [--json]
 *   unintt-cli ntt      --log-n=24 --gpus=4 [--fabric=nvswitch]
 *                       [--field=goldilocks] [--batch=1] [--inverse]
 *                       [--trace=out.json] [--baseline=fourstep]
 *                       [--functional] [--threads=N]
 *   unintt-cli msm      --log-n=20 --gpus=4 [--g2]
 *   unintt-cli prover   --log-constraints=22 --gpus=8 [--proto=plonk]
 *   unintt-cli levels   --gpus=8
 *
 * Every subcommand prints simulated timelines built from the same
 * engines the benches use.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/fourstep_multigpu.hh"
#include "service/loadgen.hh"
#include "service/service.hh"
#include "field/babybear.hh"
#include "field/dispatch.hh"
#include "field/bn254.hh"
#include "field/goldilocks.hh"
#include "msm/pippenger.hh"
#include "sim/trace.hh"
#include "unintt/engine.hh"
#include "unintt/tunedb.hh"
#include "unintt/tuner.hh"
#include "util/cli.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "zkp/chaos.hh"
#include "zkp/prover.hh"
#include "zkp/serialize.hh"
#include "zkp/stark.hh"

#include <iostream>

namespace unintt {
namespace {

MultiGpuSystem
systemFromFlags(const CliParser &cli)
{
    return MultiGpuSystem{gpuModelByName(cli.getString("gpu")),
                          fabricByName(cli.getString("fabric")),
                          static_cast<unsigned>(cli.getInt("gpus"))};
}

/** Shared --tile-log2 flag (schedule and ntt subcommands). */
void
addTileFlag(CliParser &cli)
{
    cli.addInt("tile-log2", 0,
               "log2 of the host-resident tile for fused local "
               "passes (0 = auto from the cache model)");
    cli.addString("isa", "auto",
                  "host acceleration path: auto, scalar, avx2, "
                  "avx512, neon (UNINTT_FORCE_ISA overrides)");
    cli.addString("tune-db", "",
                  "tuning DB path: '' = tuning/tunedb.json, 'off' "
                  "disables DB consultation (UNINTT_TUNEDB overrides)");
}

UniNttConfig
configFromFlags(const CliParser &cli)
{
    UniNttConfig cfg;
    cfg.hostTileLog2 =
        static_cast<unsigned>(cli.getInt("tile-log2"));
    if (!parseIsaPath(cli.getString("isa"), &cfg.isaPath))
        fatal("unknown --isa '%s' (auto, scalar, avx2, avx512, neon)",
              cli.getString("isa").c_str());
    cfg.tuneDbPath = cli.getString("tune-db");
    return cfg;
}

/** Split a comma-separated flag value ("14,16,18"). */
std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

void
addCommonFlags(CliParser &cli)
{
    cli.addInt("gpus", 4, "number of simulated GPUs (power of two)");
    cli.addString("gpu", "a100", "GPU model: a100, h100, rtx4090");
    cli.addString("fabric", "nvswitch", "fabric: nvswitch, ring, pcie");
}

int
cmdPlan(int argc, char **argv)
{
    CliParser cli("print the hierarchical decomposition");
    cli.addInt("log-n", 24, "log2 of the transform size");
    addCommonFlags(cli);
    cli.parse(argc, argv);
    auto sys = systemFromFlags(cli);
    auto pl = planNtt(static_cast<unsigned>(cli.getInt("log-n")), sys, 8);
    std::printf("machine: %s\n", sys.description().c_str());
    std::printf("plan:    %s\n", pl.toString().c_str());
    std::printf("chunk:   %s elements per GPU\n",
                fmtI(pl.chunkElems()).c_str());
    return 0;
}

template <NttField F>
int
runSchedule(const CliParser &cli)
{
    auto sys = systemFromFlags(cli);
    unsigned logN = static_cast<unsigned>(cli.getInt("log-n"));
    size_t batch = static_cast<size_t>(cli.getInt("batch"));
    NttDirection dir = cli.getBool("inverse") ? NttDirection::Inverse
                                              : NttDirection::Forward;

    UniNttConfig cfg = configFromFlags(cli);
    const IsaPath isa = resolveIsaPath(cfg.isaPath);
    UniNttEngine<F> engine(sys, cfg);
    bool plan_hit = false, sched_hit = false, tuned = false;
    auto sched = engine.schedule(logN, dir, batch, &plan_hit, &sched_hit,
                                 &tuned);

    unsigned fused_groups = 0, tile_log2 = 0;
    for (const auto &st : sched->steps) {
        if (st.kind != StepKind::FusedLocalPass)
            continue;
        ++fused_groups;
        tile_log2 = st.tileLog2;
    }

    if (cli.getBool("json")) {
        std::printf("{\n");
        std::printf("  \"logN\": %u,\n", sched->logN);
        std::printf("  \"dir\": \"%s\",\n", toString(sched->dir));
        std::printf("  \"batch\": %zu,\n", sched->batch);
        std::printf("  \"field\": \"%s\",\n", F::kName);
        std::printf("  \"isa\": \"%s\",\n", isaPathName(isa));
        std::printf("  \"isaLanes\": %u,\n",
                    isaLaneWidth(isa, sizeof(F)));
        std::printf("  \"gpus\": %u,\n", sys.numGpus);
        std::printf("  \"planCacheHit\": %s,\n",
                    plan_hit ? "true" : "false");
        std::printf("  \"scheduleCacheHit\": %s,\n",
                    sched_hit ? "true" : "false");
        std::printf("  \"scheduleSource\": \"%s\",\n",
                    tuned ? "tuned" : "heuristic");
        std::printf("  \"fusedGroups\": %u,\n", fused_groups);
        std::printf("  \"overlap\": %s,\n",
                    sched->overlapped ? "true" : "false");
        std::printf("  \"waves\": %zu,\n", sched->waves.size());
        std::printf("  \"dagNodes\": %zu,\n", sched->dag.size());
        std::printf("  \"tileLog2\": %u,\n", tile_log2);
        std::printf("  \"peakDeviceBytes\": %llu,\n",
                    static_cast<unsigned long long>(
                        sched->peakDeviceBytes));
        // Per-step DAG overlay facts: wave span and chunk count (a
        // linear schedule has one node and one wave per step).
        std::vector<unsigned> wave_lo(sched->steps.size(), 0);
        std::vector<unsigned> wave_hi(sched->steps.size(), 0);
        std::vector<unsigned> chunks(sched->steps.size(), 0);
        for (const auto &nd : sched->dag) {
            if (chunks[nd.step] == 0) {
                wave_lo[nd.step] = nd.wave;
                wave_hi[nd.step] = nd.wave;
            }
            wave_lo[nd.step] = std::min(wave_lo[nd.step], nd.wave);
            wave_hi[nd.step] = std::max(wave_hi[nd.step], nd.wave);
            chunks[nd.step] = nd.chunkCount;
        }
        std::printf("  \"steps\": [\n");
        for (size_t i = 0; i < sched->steps.size(); ++i) {
            const auto &st = sched->steps[i];
            std::printf(
                "    {\"index\": %zu, \"kind\": \"%s\", "
                "\"level\": \"%s\", \"name\": \"%s\", "
                "\"sBegin\": %u, \"sEnd\": %u, \"distance\": %u, "
                "\"waveBegin\": %u, \"waveEnd\": %u, "
                "\"chunks\": %u, "
                "\"fieldMuls\": %llu, \"fieldAdds\": %llu, "
                "\"dramReadBytes\": %llu, \"dramWriteBytes\": %llu, "
                "\"commBytesPerGpu\": %llu}%s\n",
                i, toString(st.kind), toString(st.level),
                st.name.c_str(), st.sBegin, st.sEnd, st.distance,
                wave_lo[i], wave_hi[i], chunks[i],
                static_cast<unsigned long long>(st.stats.fieldMuls),
                static_cast<unsigned long long>(st.stats.fieldAdds),
                static_cast<unsigned long long>(
                    st.stats.globalReadBytes),
                static_cast<unsigned long long>(
                    st.stats.globalWriteBytes),
                static_cast<unsigned long long>(st.comm.bytesPerGpu),
                i + 1 < sched->steps.size() ? "," : "");
        }
        std::printf("  ]\n}\n");
        return 0;
    }

    std::printf("machine:  %s\n", sys.description().c_str());
    std::printf("plan:     %s\n", sched->plan.toString().c_str());
    std::printf("%s\n", routerDescription().c_str());
    std::printf("isa:      %s (%u lane%s for %s)\n", isaPathName(isa),
                isaLaneWidth(isa, sizeof(F)),
                isaLaneWidth(isa, sizeof(F)) == 1 ? "" : "s", F::kName);
    std::printf("caches:   plan %s, schedule %s\n",
                plan_hit ? "hit" : "miss", sched_hit ? "hit" : "miss");
    std::printf("schedule: %s\n", tuned ? "tuned (DB hit)" : "heuristic");
    if (fused_groups > 0)
        std::printf("fusion:   %u fused group%s, 2^%u-element tiles\n",
                    fused_groups, fused_groups == 1 ? "" : "s",
                    tile_log2);
    if (sched->overlapped)
        std::printf("overlap:  %zu waves over %zu DAG nodes\n",
                    sched->waves.size(), sched->dag.size());
    std::printf("\n%s", sched->toString().c_str());
    std::printf("\npeak device memory: %s/GPU\n",
                formatBytes(
                    static_cast<double>(sched->peakDeviceBytes))
                    .c_str());
    return 0;
}

int
cmdSchedule(int argc, char **argv)
{
    CliParser cli("print the compiled stage schedule of one transform");
    cli.addInt("log-n", 24, "log2 of the transform size");
    cli.addInt("batch", 1, "number of independent transforms");
    cli.addBool("inverse", false, "compile the inverse transform");
    cli.addString("field", "goldilocks",
                  "field: goldilocks, babybear, bn254");
    cli.addBool("json", false, "emit the schedule as JSON");
    addTileFlag(cli);
    addCommonFlags(cli);
    cli.parse(argc, argv);

    std::string field = cli.getString("field");
    if (field == "goldilocks")
        return runSchedule<Goldilocks>(cli);
    if (field == "babybear")
        return runSchedule<BabyBear>(cli);
    if (field == "bn254")
        return runSchedule<Bn254Fr>(cli);
    fatal("unknown field '%s'", field.c_str());
}

template <NttField F>
int
runNtt(const CliParser &cli)
{
    auto sys = systemFromFlags(cli);
    unsigned logN = static_cast<unsigned>(cli.getInt("log-n"));
    size_t batch = static_cast<size_t>(cli.getInt("batch"));
    NttDirection dir = cli.getBool("inverse") ? NttDirection::Inverse
                                              : NttDirection::Forward;

    std::printf("machine: %s, %s NTT of 2^%u x%zu over %s\n",
                sys.description().c_str(), toString(dir), logN, batch,
                F::kName);
    std::printf("%s\n\n", routerDescription().c_str());

    unsigned threads = static_cast<unsigned>(cli.getInt("threads"));
    if (threads > 0)
        ThreadPool::setGlobalThreads(threads);

    SimReport report;
    if (cli.getBool("functional")) {
        if (!cli.getString("baseline").empty())
            fatal("--functional only runs the UniNTT engine "
                  "(drop --baseline)");
        uint64_t bytes =
            (static_cast<uint64_t>(batch) << logN) * sizeof(F);
        if (bytes > (4ULL << 30))
            fatal("--functional needs %s of host memory; "
                  "use --log-n/--batch totalling <= 4 GiB",
                  formatBytes(static_cast<double>(bytes)).c_str());

        UniNttConfig cfg = configFromFlags(cli);
        cfg.hostThreads = threads; // 0 = every pool lane
        UniNttEngine<F> engine(sys, cfg);
        Rng rng(2024);
        std::vector<DistributedVector<F>> batch_data;
        batch_data.reserve(batch);
        for (size_t b = 0; b < batch; ++b) {
            std::vector<F> x(size_t{1} << logN);
            for (auto &v : x)
                v = F::fromU64(rng.next());
            batch_data.push_back(
                DistributedVector<F>::fromGlobal(x, sys.numGpus));
        }

        auto t0 = std::chrono::steady_clock::now();
        if (dir == NttDirection::Forward) {
            report = engine.forwardBatch(batch_data);
        } else {
            report = engine.inverse(batch_data[0]);
            for (size_t b = 1; b < batch_data.size(); ++b)
                report.append(engine.inverse(batch_data[b]));
        }
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        std::printf("host wall clock: %s (%u host thread%s)\n",
                    formatSeconds(wall).c_str(), engine.hostLanes(),
                    engine.hostLanes() == 1 ? "" : "s");
    } else if (cli.getString("baseline") == "fourstep") {
        FourStepMultiGpuNtt<F> engine(sys);
        report = engine.analyticRun(logN, dir, batch);
    } else if (cli.getString("baseline").empty()) {
        UniNttEngine<F> engine(sys, configFromFlags(cli));
        report = engine.analyticRun(logN, dir, batch);
    } else {
        fatal("unknown --baseline '%s' (only 'fourstep')",
              cli.getString("baseline").c_str());
    }
    std::printf("%s", report.toString().c_str());
    std::printf("peak device memory: %s/GPU\n",
                formatBytes(static_cast<double>(report.peakDeviceBytes()))
                    .c_str());
    double n = static_cast<double>(1ULL << logN) *
               static_cast<double>(batch);
    std::printf("throughput: %s\n",
                formatRate(n / report.totalSeconds()).c_str());

    if (!cli.getString("trace").empty())
        writeChromeTrace(report, sys.description(),
                         cli.getString("trace"));
    return 0;
}

int
cmdNtt(int argc, char **argv)
{
    CliParser cli("simulate one (batched) NTT");
    cli.addInt("log-n", 24, "log2 of the transform size");
    cli.addInt("batch", 1, "number of independent transforms");
    cli.addBool("inverse", false, "run the inverse transform");
    cli.addString("field", "goldilocks",
                  "field: goldilocks, babybear, bn254");
    cli.addString("baseline", "", "run a baseline instead: fourstep");
    cli.addBool("functional", false,
                "execute the transform bit-exactly on the host "
                "(in addition to the simulated timeline)");
    cli.addInt("threads", 0,
               "host threads for --functional: 0 = all cores, 1 = serial");
    cli.addString("trace", "", "write a chrome://tracing JSON here");
    addTileFlag(cli);
    addCommonFlags(cli);
    cli.parse(argc, argv);

    std::string field = cli.getString("field");
    if (field == "goldilocks")
        return runNtt<Goldilocks>(cli);
    if (field == "babybear")
        return runNtt<BabyBear>(cli);
    if (field == "bn254")
        return runNtt<Bn254Fr>(cli);
    fatal("unknown field '%s'", field.c_str());
}

/** Tune every requested size of one field and print the outcomes. */
template <NttField F>
void
tuneFieldRows(TuningDb &db, const std::vector<unsigned> &log_ns,
              const TuneRequest &proto, const TuneSpace &space,
              Table &t)
{
    for (const TuneOutcome &o :
         tuneField<F>(db, log_ns, proto, space)) {
        const TuneEntry &e = o.entry;
        char gain[32];
        if (o.heuristicSeconds > 0)
            std::snprintf(gain, sizeof(gain), "%+.1f%%",
                          (o.heuristicSeconds - e.seconds) /
                              o.heuristicSeconds * 100.0);
        else
            std::snprintf(gain, sizeof(gain), "n/a");
        t.addRow({e.key.field, std::to_string(e.key.logN),
                  std::to_string(e.key.gpus), e.key.executor,
                  e.params.toString(), formatSeconds(e.seconds),
                  formatSeconds(o.heuristicSeconds), gain});
    }
}

int
cmdTune(int argc, char **argv)
{
    CliParser cli("search the schedule-knob space and persist the "
                  "winners in the versioned tuning DB");
    cli.addString("fields", "goldilocks",
                  "comma-separated: goldilocks, babybear, bn254");
    cli.addString("log-ns", "14,16,18",
                  "comma-separated log2 transform sizes");
    cli.addString("executor", "functional",
                  "what to optimize: functional (measured wall time), "
                  "analytic (deterministic pricing), both");
    cli.addInt("reps", 3, "wall-time repetitions per functional "
                          "candidate (median wins)");
    cli.addInt("seed", 1, "seed of inputs and measurement order");
    cli.addString("db", "", "tuning DB path (default tuning/tunedb.json)");
    cli.addBool("small", false,
                "tiny candidate grid for CI smoke runs");
    cli.addInt("threads", 0,
               "pin hostThreads (0 searches the grid axis)");
    addTileFlag(cli);
    addCommonFlags(cli);
    cli.parse(argc, argv);

    const std::string db_path = cli.getString("db").empty()
                                    ? std::string(kDefaultTuneDbPath)
                                    : cli.getString("db");
    const std::vector<std::string> fields =
        splitCsv(cli.getString("fields"));
    std::vector<unsigned> log_ns;
    for (const std::string &s : splitCsv(cli.getString("log-ns")))
        log_ns.push_back(
            static_cast<unsigned>(std::strtoul(s.c_str(), nullptr, 10)));
    if (fields.empty() || log_ns.empty())
        fatal("--fields and --log-ns must be non-empty");
    std::vector<std::string> executors;
    if (cli.getString("executor") == "both")
        executors = {"functional", "analytic"};
    else
        executors = {cli.getString("executor")};

    TuneRequest proto;
    proto.sys = systemFromFlags(cli);
    proto.reps = static_cast<unsigned>(cli.getInt("reps"));
    proto.seed = static_cast<uint64_t>(cli.getInt("seed"));
    proto.base = configFromFlags(cli);
    proto.base.hostThreads =
        static_cast<unsigned>(cli.getInt("threads"));
    proto.base.useTuneDb = false;

    const TuneSpace space =
        cli.getBool("small") ? TuneSpace::small() : TuneSpace::defaults();

    TuningDb db;
    const TuningDb::LoadStatus st = db.loadFile(db_path);
    if (st.corrupt || st.staleVersion)
        std::printf("note: existing DB at %s was %s; rewriting\n",
                    db_path.c_str(),
                    st.corrupt ? "corrupt" : "a stale version");

    std::printf("tuning %zu field(s) x %zu size(s) x %zu executor(s) "
                "on %s (%zu-point grid per key)\n\n",
                fields.size(), log_ns.size(), executors.size(),
                proto.sys.description().c_str(), space.size());

    Table t({"field", "logN", "gpus", "executor", "winner", "tuned",
             "heuristic", "gain"});
    for (const std::string &ex : executors) {
        proto.executor = ex;
        for (const std::string &f : fields) {
            if (f == "goldilocks")
                tuneFieldRows<Goldilocks>(db, log_ns, proto, space, t);
            else if (f == "babybear")
                tuneFieldRows<BabyBear>(db, log_ns, proto, space, t);
            else if (f == "bn254")
                tuneFieldRows<Bn254Fr>(db, log_ns, proto, space, t);
            else
                fatal("unknown field '%s'", f.c_str());
        }
    }
    t.print();

    if (!db.saveFile(db_path))
        fatal("cannot write tuning DB '%s'", db_path.c_str());
    invalidateTuneDbCache();
    std::printf("\nwrote %zu entries to %s (version %u)\n",
                db.entries().size(), db_path.c_str(), kTuneDbVersion);
    return 0;
}

int
cmdMsm(int argc, char **argv)
{
    CliParser cli("simulate one multi-GPU MSM");
    cli.addInt("log-n", 20, "log2 of the point count");
    cli.addBool("g2", false, "price the G2 variant");
    addCommonFlags(cli);
    cli.parse(argc, argv);
    auto sys = systemFromFlags(cli);
    MsmEngine engine(sys);
    auto report = engine.analyticRun(
        1ULL << cli.getInt("log-n"), cli.getBool("g2"));
    std::printf("machine: %s, %s MSM of 2^%lld points\n\n",
                sys.description().c_str(),
                cli.getBool("g2") ? "G2" : "G1",
                static_cast<long long>(cli.getInt("log-n")));
    std::printf("%s", report.toString().c_str());
    return 0;
}

int
cmdProver(int argc, char **argv)
{
    CliParser cli("simulate an end-to-end prover");
    cli.addInt("log-constraints", 22, "log2 of the circuit size");
    cli.addString("proto", "groth16", "protocol: groth16, plonk");
    addCommonFlags(cli);
    cli.parse(argc, argv);
    auto sys = systemFromFlags(cli);

    unsigned logc = static_cast<unsigned>(cli.getInt("log-constraints"));
    auto stages = cli.getString("proto") == "plonk"
                      ? ZkpPipeline::plonkStages(logc)
                      : ZkpPipeline::groth16Stages(logc);

    Table t({"backend", "NTT", "MSM", "other", "total"});
    for (auto backend : {NttBackend::SingleGpu, NttBackend::FourStep,
                         NttBackend::UniNtt}) {
        ZkpPipeline pipe(sys, backend);
        auto bd = pipe.estimate(stages);
        t.addRow({toString(backend), formatSeconds(bd.nttSeconds),
                  formatSeconds(bd.msmSeconds),
                  formatSeconds(bd.otherSeconds),
                  formatSeconds(bd.total())});
    }
    std::printf("%s prover, 2^%u constraints, %s\n",
                cli.getString("proto").c_str(), logc,
                sys.description().c_str());
    t.print();
    return 0;
}

int
cmdStark(int argc, char **argv)
{
    CliParser cli("run a functional STARK prove/verify cycle");
    cli.addInt("start", 3, "public start value");
    cli.addInt("log-steps", 9, "log2 of the trace length");
    cli.addString("proof-out", "", "write the serialized proof here");
    cli.parse(argc, argv);

    SquareStark stark;
    auto t0 = Goldilocks::fromU64(
        static_cast<uint64_t>(cli.getInt("start")));
    auto proof = stark.prove(
        t0, static_cast<unsigned>(cli.getInt("log-steps")));
    bool ok = stark.verify(proof);
    auto bytes = serializeStarkProof(proof);
    std::printf("proof: %s, verifies: %s\n",
                formatBytes(static_cast<double>(bytes.size())).c_str(),
                ok ? "OK" : "FAILED");

    std::string path = cli.getString("proof-out");
    if (!path.empty()) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        if (!f)
            fatal("cannot open '%s'", path.c_str());
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }
    return ok ? 0 : 1;
}

/**
 * The tenant mix the service subcommands drive: the bench default
 * (premium/standard/bulk NTTs) plus an optional checkpointed-proof
 * tenant.
 */
std::vector<TenantProfile>
serviceTenants(unsigned logN, bool proofs)
{
    std::vector<TenantProfile> tenants =
        LoadScenario::defaultTenants(logN);
    if (proofs) {
        TenantProfile prover;
        prover.name = "prover";
        prover.sla = SlaClass::Standard;
        prover.kind = JobKind::Proof;
        prover.logN = 6;
        prover.weight = 0.25;
        prover.seedPool = 1;
        tenants.push_back(prover);
    }
    return tenants;
}

/**
 * Fabric faults + device kills, armed at @p kill_at seconds. The kill
 * count scales with the fleet so the surviving capacity still exceeds
 * the offered load (otherwise the queue is unstable by construction
 * and no scheduler could hold any SLA).
 */
ServiceChaos
serviceChaos(unsigned gpus, double kill_at)
{
    ServiceChaos chaos;
    chaos.transientRate = 0.01;
    chaos.bitFlipRate = 0.005;
    chaos.stragglerRate = 0.01;
    chaos.stragglerSlowdown = 2.0;
    chaos.stageFailRate = 0.05;
    chaos.roundFailRate = 0.02;
    chaos.killDevices = gpus >= 8 ? std::vector<unsigned>{1, gpus - 1}
                                  : std::vector<unsigned>{1};
    chaos.killAtSeconds = kill_at;
    return chaos;
}

/**
 * Chaos soak of the *service* layer: the same seeded load scenario
 * runs fault-free and under chaos; every completed result must match
 * its fault-free reference, every loss must surface as a Status, and
 * the healthy premium tenant's p99 must stay within 2x of the clean
 * run.
 */
int
runServiceSoak(const CliParser &cli)
{
    unsigned gpus = static_cast<unsigned>(cli.getInt("gpus"));
    unsigned logN = static_cast<unsigned>(cli.getInt("log-n"));
    unsigned jobs = 400;
    if (cli.getBool("small")) {
        // Keep the 8-GPU slot structure: a 2-slot fleet cannot absorb
        // a device kill without head-of-line blocking every class.
        logN = 10;
        jobs = 150;
    }
    const uint64_t seed = static_cast<uint64_t>(cli.getInt("seed"));

    MultiGpuSystem fleet = makeDgxA100(gpus);
    ServiceConfig cfg;
    cfg.jobGpus = 2;
    cfg.seed = seed;
    // Both runs use the hardened executor so the p99 ratio measures
    // the injected faults, not a plain-vs-resilient overhead delta.
    cfg.hardenedOnly = true;

    LoadScenario scn;
    scn.offeredLoad = 0.5;
    scn.jobsTarget = jobs;
    scn.seed = seed;
    scn.tenants = serviceTenants(logN, /*proofs=*/true);

    std::printf("service soak: %u jobs at %.0f%% load on %u GPUs, "
                "seed 0x%llx\n\nfault-free:\n",
                jobs, scn.offeredLoad * 100, gpus,
                static_cast<unsigned long long>(seed));
    LoadResult clean = runLoadScenario(fleet, cfg, scn);
    std::printf("%s\n", formatLoadResult(clean).c_str());

    const ServiceChaos chaos =
        serviceChaos(gpus, clean.makespanSeconds * 0.3);
    std::printf("under chaos (fabric faults + %zu device kill(s) + "
                "proof interruptions):\n",
                chaos.killDevices.size());
    LoadResult faulty = runLoadScenario(fleet, cfg, scn, chaos);
    std::printf("%s\n", formatLoadResult(faulty).c_str());
    std::printf("%s\n", faulty.report.toString().c_str());

    int failures = 0;
    if (clean.corruptResults != 0 || faulty.corruptResults != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu corrupt result(s) reported as OK\n",
                     static_cast<unsigned long long>(
                         clean.corruptResults + faulty.corruptResults));
        failures++;
    }
    for (const LoadResult *r : {&clean, &faulty}) {
        const ServiceCounters &c = r->totals;
        if (c.submitted !=
            c.admitted + c.shed + c.quotaRejected) {
            std::fprintf(stderr, "FAIL: admission accounting leak\n");
            failures++;
        }
        if (c.admitted !=
            c.completed + c.failed + c.deadlineMissed) {
            std::fprintf(stderr,
                         "FAIL: %llu admitted job(s) vanished without "
                         "an outcome\n",
                         static_cast<unsigned long long>(
                             c.admitted - c.completed - c.failed -
                             c.deadlineMissed));
            failures++;
        }
    }
    // The slowest premium jobs under chaos, with what happened to
    // them — makes an SLA breach diagnosable from the soak log.
    {
        std::vector<const JobOutcome *> prem;
        for (const JobOutcome &out : faulty.outcomes)
            if (out.tenant == 0 && out.status.ok())
                prem.push_back(&out);
        std::sort(prem.begin(), prem.end(),
                  [](const JobOutcome *a, const JobOutcome *b) {
                      return a->latency() > b->latency();
                  });
        std::printf("slowest premium jobs under chaos:\n");
        for (size_t i = 0; i < prem.size() && i < 4; ++i) {
            const JobOutcome &o = *prem[i];
            std::printf("  job%llu: latency %s (queued %s), "
                        "%u attempt(s)%s%s\n",
                        static_cast<unsigned long long>(o.id),
                        formatSeconds(o.latency()).c_str(),
                        formatSeconds(o.started - o.arrival).c_str(),
                        o.attempts, o.degraded ? ", degraded" : "",
                        o.coalesced ? ", coalesced" : "");
        }
    }

    const TenantLoadStats *clean_prem = clean.find("premium");
    const TenantLoadStats *faulty_prem = faulty.find("premium");
    if (clean_prem && faulty_prem && clean_prem->p99 > 0 &&
        faulty_prem->p99 > 2.0 * clean_prem->p99) {
        std::fprintf(stderr,
                     "FAIL: premium p99 under chaos (%s) exceeds 2x "
                     "the fault-free p99 (%s)\n",
                     formatSeconds(faulty_prem->p99).c_str(),
                     formatSeconds(clean_prem->p99).c_str());
        failures++;
    }
    if (failures != 0)
        return 1;
    std::printf("OK: zero silent corruption, every job accounted, "
                "premium p99 within 2x of fault-free\n");
    return 0;
}

int
cmdServe(int argc, char **argv)
{
    CliParser cli("run the multi-tenant proving service under a "
                  "seeded load scenario");
    cli.addInt("log-n", 12, "log2 transform size of the tenant mix");
    cli.addInt("job-gpus", 2, "GPUs each job requests (power of two)");
    cli.addInt("jobs", 400, "open loop: arrivals to generate");
    cli.addInt("offered", 60,
               "open loop: offered load, percent of estimated capacity");
    cli.addBool("closed", false,
                "closed-loop clients instead of Poisson arrivals");
    cli.addInt("clients", 2, "closed loop: clients per tenant");
    cli.addInt("duration-us", 2000,
               "closed loop: submission horizon, simulated us");
    cli.addBool("proofs", false, "add a checkpointed-proof tenant");
    cli.addBool("chaos", false,
                "inject fabric faults and kill two devices mid-run");
    cli.addInt("seed", 0x5e41ce, "scenario seed");
    addCommonFlags(cli);
    cli.parse(argc, argv);

    MultiGpuSystem fleet = systemFromFlags(cli);
    ServiceConfig cfg;
    cfg.jobGpus = static_cast<unsigned>(cli.getInt("job-gpus"));
    cfg.seed = static_cast<uint64_t>(cli.getInt("seed"));

    LoadScenario scn;
    scn.seed = cfg.seed;
    scn.closedLoop = cli.getBool("closed");
    scn.offeredLoad =
        static_cast<double>(cli.getInt("offered")) / 100.0;
    scn.jobsTarget = static_cast<unsigned>(cli.getInt("jobs"));
    scn.clientsPerTenant = static_cast<unsigned>(cli.getInt("clients"));
    scn.durationSeconds =
        static_cast<double>(cli.getInt("duration-us")) * 1e-6;
    scn.tenants = serviceTenants(
        static_cast<unsigned>(cli.getInt("log-n")),
        cli.getBool("proofs"));

    ServiceChaos chaos;
    if (cli.getBool("chaos")) {
        // Approximate the makespan to arm the kills a third in.
        ProvingService probe(fleet, cfg);
        const double est = probe.estimateServiceSeconds(
            JobKind::NttForward,
            static_cast<unsigned>(cli.getInt("log-n")));
        const unsigned slots =
            std::max(1u, fleet.numGpus / cfg.jobGpus);
        const double makespan = static_cast<double>(scn.jobsTarget) *
                                est /
                                (scn.offeredLoad *
                                 static_cast<double>(slots));
        chaos = serviceChaos(fleet.numGpus, makespan * 0.3);
    }

    std::printf("%s, %zu tenants, %s load\n\n",
                fleet.description().c_str(), scn.tenants.size(),
                scn.closedLoop ? "closed-loop" : "open-loop");
    LoadResult res = runLoadScenario(fleet, cfg, scn, chaos);
    std::printf("%s\n", formatLoadResult(res).c_str());
    std::printf("%s", res.report.toString().c_str());
    return res.corruptResults == 0 ? 0 : 1;
}

int
cmdSoak(int argc, char **argv)
{
    CliParser cli("seeded chaos soak over the checkpointed proof "
                  "pipeline and the resilient NTT engine");
    cli.addInt("campaigns", 8, "proof pipelines per grid intensity");
    cli.addInt("seed", 0xc405, "master seed of every campaign");
    cli.addInt("gpus", 8, "simulated GPUs running the NTT workload");
    cli.addInt("log-n", 14, "log2 transform size of the NTT workload");
    cli.addInt("log-trace", 8, "log2 trace length of each proof");
    cli.addBool("small", false,
                "shrink the workload for CI (log-trace=6, log-n=10, "
                "gpus=4)");
    cli.addBool("service", false,
                "soak the multi-tenant service layer under load "
                "instead of the bare engine/proof pipelines");
    cli.addBool("no-overlap", false,
                "run the NTT campaigns with the linear dispatch "
                "(default soaks the DAG wave dispatch, so injected "
                "faults land mid-overlap)");
    cli.addBool("no-abft", false,
                "disable the ABFT compute checksums — the "
                "expected-failure smoke: with compute bit flips in "
                "the grid this MUST report silent corruptions, "
                "proving the checksums are load-bearing");
    cli.parse(argc, argv);

    if (cli.getBool("service"))
        return runServiceSoak(cli);

    ChaosConfig cfg;
    cfg.seed = static_cast<uint64_t>(cli.getInt("seed"));
    cfg.campaigns = static_cast<unsigned>(cli.getInt("campaigns"));
    cfg.gpus = static_cast<unsigned>(cli.getInt("gpus"));
    cfg.logN = static_cast<unsigned>(cli.getInt("log-n"));
    cfg.logTrace = static_cast<unsigned>(cli.getInt("log-trace"));
    cfg.overlapComm = !cli.getBool("no-overlap");
    cfg.abft = !cli.getBool("no-abft");
    if (cli.getBool("small")) {
        cfg.logTrace = 6;
        cfg.logN = 10;
        cfg.gpus = 4;
    }

    std::printf("chaos soak: %u campaigns/intensity, proofs 2^%u, "
                "NTT 2^%u on %u GPUs (%s dispatch, abft %s), "
                "seed 0x%llx\n\n",
                cfg.campaigns, cfg.logTrace, cfg.logN, cfg.gpus,
                cfg.overlapComm ? "dag-overlap" : "linear",
                cfg.abft ? "on" : "OFF",
                static_cast<unsigned long long>(cfg.seed));

    std::vector<ChaosCampaignStats> rows;
    uint64_t silent = 0;
    for (const auto &intensity : defaultChaosGrid()) {
        rows.push_back(runChaosCampaigns(cfg, intensity));
        silent += rows.back().silentCorruptions;
    }
    printChaosTable(std::cout, rows);

    // Injected-vs-caught ledger per fault category, over completed
    // transforms (failed-clean runs discard their SimReport, so only
    // completions can be balanced). The exchange side is
    // informational; the compute side is a hard gate when ABFT is on:
    // every injected flip must be either caught or escalated.
    uint64_t xinj = 0, xcaught = 0, cinj = 0, ccaught = 0, cesc = 0,
             tiles = 0;
    for (const auto &r : rows) {
        xinj += r.exchangeFlipsInjected;
        xcaught += r.exchangeFlipsCaught;
        cinj += r.computeFlipsInjected;
        ccaught += r.abftCaught;
        cesc += r.abftEscalated;
        tiles += r.abftTilesRecomputed;
    }
    std::printf("\ninjected vs caught (completed transforms):\n"
                "  exchange flips: %llu injected, %llu caught by "
                "payload checksums\n"
                "  compute flips:  %llu injected, %llu caught by "
                "ABFT (+%llu escalated), %llu tiles recomputed\n",
                static_cast<unsigned long long>(xinj),
                static_cast<unsigned long long>(xcaught),
                static_cast<unsigned long long>(cinj),
                static_cast<unsigned long long>(ccaught),
                static_cast<unsigned long long>(cesc),
                static_cast<unsigned long long>(tiles));

    if (cfg.abft && cinj != ccaught + cesc) {
        std::fprintf(stderr,
                     "\nFAIL: ABFT ledger imbalance — %llu compute "
                     "flips injected but %llu caught + %llu "
                     "escalated\n",
                     static_cast<unsigned long long>(cinj),
                     static_cast<unsigned long long>(ccaught),
                     static_cast<unsigned long long>(cesc));
        return 1;
    }
    if (silent != 0) {
        std::fprintf(stderr,
                     "\nFAIL: %llu silent corruption(s) — a run "
                     "completed with wrong bytes\n",
                     static_cast<unsigned long long>(silent));
        return 1;
    }
    std::printf("\nOK: every run completed bit-identically or failed "
                "with a clean status\n");
    return 0;
}

int
cmdListKernels(int argc, char **argv)
{
    CliParser cli("print the probed CPU features and the kernel "
                  "table the router binds for every field");
    cli.parse(argc, argv);
    std::printf("%s", listKernelsReport().c_str());
    return 0;
}

int
cmdLevels(int argc, char **argv)
{
    CliParser cli("print the abstract hardware model");
    addCommonFlags(cli);
    cli.parse(argc, argv);
    auto sys = systemFromFlags(cli);
    Table t({"level", "fanout", "capacity (elems)", "exchange bw",
             "latency"});
    for (const auto &lvl : sys.abstractLevels(8))
        t.addRow({lvl.name, std::to_string(lvl.fanout),
                  fmtI(lvl.localCapacityElems),
                  formatBytes(lvl.exchangeBandwidth) + "/s",
                  formatSeconds(lvl.exchangeLatency)});
    std::printf("%s\n", sys.description().c_str());
    t.print();
    return 0;
}

void
usage()
{
    std::printf(
        "unintt-cli <command> [flags]\n\n"
        "commands:\n"
        "  plan      print the hierarchical decomposition for a size\n"
        "  schedule  print the compiled stage schedule (--json for "
        "machines)\n"
        "  ntt       simulate one (batched) NTT and print the "
        "timeline\n"
        "  tune      search the schedule-knob space and persist the\n"
        "            winners in the versioned tuning DB\n"
        "  msm       simulate one multi-GPU MSM\n"
        "  prover    simulate an end-to-end ZKP prover\n"
        "  stark     run a functional STARK prove/verify cycle\n"
        "  soak      run seeded chaos campaigns over the proof "
        "pipeline\n"
        "  serve     run the multi-tenant proving service under "
        "load\n"
        "  levels    print the abstract hardware model of a machine\n"
        "  list-kernels  print probed CPU features and the kernel "
        "table\n"
        "                bound per field (also: --list-kernels)\n\n"
        "schedule/ntt take --isa=auto|scalar|avx2|avx512|neon to "
        "force\n"
        "an acceleration path; the UNINTT_FORCE_ISA environment\n"
        "variable overrides every request.\n\n"
        "run 'unintt-cli <command> --help' for the command's flags\n");
}

} // namespace
} // namespace unintt

int
main(int argc, char **argv)
{
    using namespace unintt;
    if (argc < 2) {
        usage();
        return 1;
    }
    std::string cmd = argv[1];
    if (cmd == "plan")
        return cmdPlan(argc - 1, argv + 1);
    if (cmd == "schedule")
        return cmdSchedule(argc - 1, argv + 1);
    if (cmd == "ntt")
        return cmdNtt(argc - 1, argv + 1);
    if (cmd == "tune")
        return cmdTune(argc - 1, argv + 1);
    if (cmd == "msm")
        return cmdMsm(argc - 1, argv + 1);
    if (cmd == "prover")
        return cmdProver(argc - 1, argv + 1);
    if (cmd == "stark")
        return cmdStark(argc - 1, argv + 1);
    if (cmd == "soak")
        return cmdSoak(argc - 1, argv + 1);
    if (cmd == "serve")
        return cmdServe(argc - 1, argv + 1);
    if (cmd == "levels")
        return cmdLevels(argc - 1, argv + 1);
    if (cmd == "list-kernels" || cmd == "--list-kernels")
        return cmdListKernels(argc - 1, argv + 1);
    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n\n", cmd.c_str());
    usage();
    return 1;
}
