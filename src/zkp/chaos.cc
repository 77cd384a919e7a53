#include "zkp/chaos.hh"

#include <cmath>
#include <iomanip>
#include <limits>

#include "sim/fault.hh"
#include "unintt/engine.hh"
#include "unintt/health.hh"
#include "util/checksum.hh"
#include "util/random.hh"
#include "zkp/checkpoint.hh"
#include "zkp/serialize.hh"
#include "zkp/stark.hh"

namespace unintt {

namespace {

using F = Goldilocks;

/** Deterministic per-campaign sub-seed. */
uint64_t
subSeed(uint64_t master, const std::string &label, uint64_t campaign)
{
    uint64_t h = checksumBytes(label.data(), label.size());
    return mix64(master ^ mix64(h) ^ mix64(campaign + 1));
}

/**
 * One proof pipeline under chaos: interrupt-at-random, corrupt a
 * stored checkpoint byte between attempts, resume until it completes
 * or the budget runs out. The completion is byte-compared against the
 * fault-free reference.
 */
void
runProofCampaign(const ChaosConfig &cfg, const ChaosIntensity &in,
                 Rng &rng, ChaosCampaignStats &stats)
{
    const SquareStark stark;
    const F t0 = F::fromU64(rng.next());
    const std::vector<uint8_t> ref_bytes =
        serializeStarkProof(stark.prove(t0, cfg.logTrace));

    CheckpointStore store;
    auto gate = [&](unsigned, const std::string &) -> Status {
        if (rng.uniform() < in.stageFailRate) {
            stats.interruptions++;
            return Status::error(StatusCode::TransientFault,
                                 "chaos: stage interrupted");
        }
        return Status();
    };
    auto round_gate = [&](const std::string &, unsigned) -> Status {
        if (rng.uniform() < in.roundFailRate) {
            stats.interruptions++;
            return Status::error(StatusCode::TransientFault,
                                 "chaos: FRI round interrupted");
        }
        return Status();
    };

    bool done = false;
    for (unsigned attempt = 0; attempt <= cfg.maxResumes; ++attempt) {
        if (attempt > 0)
            stats.resumes++;
        Result<StarkProof> r = stark.proveCheckpointed(
            t0, cfg.logTrace, store, gate, round_gate);
        if (r.ok()) {
            if (serializeStarkProof(r.value()) == ref_bytes)
                stats.proofsCompleted++;
            else
                stats.silentCorruptions++;
            done = true;
            break;
        }
        // Interrupted with a clean Status. Between attempts the
        // adversary may flip a byte in a surviving checkpoint; the
        // seal must turn that into a recompute, never a wrong proof.
        if (rng.uniform() < in.checkpointCorruptRate) {
            auto keys = store.keys();
            if (!keys.empty()) {
                const std::string &k = keys[rng.below(keys.size())];
                uint8_t mask =
                    static_cast<uint8_t>(1u << rng.below(8));
                if (store.corrupt(k, rng.next(), mask))
                    stats.checkpointCorruptions++;
            }
        }
    }
    if (!done)
        stats.proofsFailedClean++;
    stats.checksumDetections += store.stats().checksumFailures;
    stats.checkpointPuts += store.stats().puts;
    stats.checkpointBytes += store.stats().bytesWritten;
}

/**
 * The campaign's NTT workload: resilient transforms on a faulty
 * machine, sharing one health tracker so one transform's dropout
 * shapes the next transform's plan. Outputs are compared against the
 * fault-free plain path.
 */
void
runTransformCampaign(const ChaosConfig &cfg, const ChaosIntensity &in,
                     uint64_t seed, Rng &rng,
                     ChaosCampaignStats &stats)
{
    auto sys = makeDgxA100(cfg.gpus);
    UniNttConfig ecfg = UniNttConfig::allOn();
    ecfg.overlapComm = cfg.overlapComm;
    UniNttEngine<F> engine(sys, ecfg);
    // Element i is F::fromU64(mix64(seed ^ i)), filled shard by shard.
    auto input = [&] {
        return DistributedVector<F>::seeded(size_t{1} << cfg.logN,
                                            cfg.gpus, seed,
                                            engine.hostLanes(),
                                            engine.kernels());
    };

    auto ref = input();
    engine.forward(ref);
    const std::vector<F> ref_global = ref.toGlobal();

    DeviceHealthTracker health(cfg.gpus);
    ResilienceConfig rc;
    rc.abft = cfg.abft;
    for (unsigned t = 0; t < cfg.transformsPerCampaign; ++t) {
        FaultModel m;
        m.seed = mix64(seed ^ (t + 1));
        m.transientExchangeRate = in.transientRate;
        m.bitFlipRate = in.bitFlipRate;
        m.stragglerRate = in.stragglerRate;
        m.computeBitFlipRate = in.computeBitFlipRate;
        if (rng.uniform() < in.dropoutRate && cfg.gpus > 1) {
            DeviceDropout drop;
            drop.gpu = static_cast<unsigned>(rng.below(cfg.gpus));
            drop.atExchange = rng.below(8);
            m.dropouts.push_back(drop);
        }
        FaultInjector inj(m);
        auto data = input();
        Result<SimReport> r =
            engine.forwardResilient(data, inj, rc, &health);

        const InjectedFaults &f = inj.injected();
        stats.injectedFaults += f.transients + f.corruptions() +
                                f.stragglers + f.dropouts;
        if (r.ok()) {
            stats.simulatedSeconds += r.value().totalSeconds();
            // Per-category injected-vs-caught ledger. Only completed
            // runs balance: an error discards the SimReport and the
            // catch counters with it, so failed-clean runs are
            // excluded from both sides.
            stats.exchangeFlipsInjected +=
                f.exchangeCorruptions + f.retransmitCorruptions;
            stats.computeFlipsInjected += f.computeCorruptions;
            const FaultStats &fs = r.value().faultStats();
            stats.exchangeFlipsCaught += fs.corruptionsDetected;
            stats.abftCaught += fs.abftCatches;
            stats.abftTilesRecomputed += fs.tilesRecomputed;
            stats.abftEscalated += fs.abftEscalations;
            if (data.toGlobal() == ref_global)
                stats.transformsCompleted++;
            else
                stats.silentCorruptions++;
        } else {
            stats.transformsFailedClean++;
        }
    }
    stats.quarantines += health.quarantineEvents();
}

} // namespace

double
ChaosCampaignStats::mtbfSeconds() const
{
    if (injectedFaults == 0)
        return std::numeric_limits<double>::infinity();
    return simulatedSeconds / static_cast<double>(injectedFaults);
}

double
ChaosCampaignStats::resumesPerProof() const
{
    if (proofsCompleted == 0)
        return 0.0;
    return static_cast<double>(resumes) /
           static_cast<double>(proofsCompleted);
}

std::vector<ChaosIntensity>
defaultChaosGrid()
{
    std::vector<ChaosIntensity> grid(4);
    grid[0].label = "off";

    grid[1].label = "light";
    grid[1].stageFailRate = 0.05;
    grid[1].roundFailRate = 0.01;
    grid[1].checkpointCorruptRate = 0.1;
    grid[1].transientRate = 0.01;
    grid[1].bitFlipRate = 0.005;
    grid[1].stragglerRate = 0.01;
    grid[1].dropoutRate = 0.0;

    grid[2].label = "medium";
    grid[2].stageFailRate = 0.15;
    grid[2].roundFailRate = 0.04;
    grid[2].checkpointCorruptRate = 0.3;
    grid[2].transientRate = 0.05;
    grid[2].bitFlipRate = 0.02;
    grid[2].stragglerRate = 0.05;
    grid[2].dropoutRate = 0.25;

    grid[3].label = "heavy";
    grid[3].stageFailRate = 0.30;
    grid[3].roundFailRate = 0.08;
    grid[3].checkpointCorruptRate = 0.5;
    grid[3].transientRate = 0.10;
    grid[3].bitFlipRate = 0.05;
    grid[3].stragglerRate = 0.10;
    grid[3].dropoutRate = 0.5;

    // Pure compute-path silent-data-corruption rows: no fabric or
    // pipeline chaos, only in-kernel bit flips, mirroring the
    // exchange bitFlipRate ladder so the ABFT checksums are the only
    // line of defense being measured.
    grid.resize(7);
    grid[4].label = "sdc-light";
    grid[4].computeBitFlipRate = 0.005;
    grid[5].label = "sdc-medium";
    grid[5].computeBitFlipRate = 0.02;
    grid[6].label = "sdc-heavy";
    grid[6].computeBitFlipRate = 0.05;
    return grid;
}

ChaosCampaignStats
runChaosCampaigns(const ChaosConfig &cfg, const ChaosIntensity &in)
{
    ChaosCampaignStats stats;
    stats.label = in.label;
    stats.campaigns = cfg.campaigns;
    for (unsigned c = 0; c < cfg.campaigns; ++c) {
        const uint64_t seed = subSeed(cfg.seed, in.label, c);
        Rng rng(seed);
        runProofCampaign(cfg, in, rng, stats);
        runTransformCampaign(cfg, in, seed, rng, stats);
    }
    return stats;
}

void
printChaosTable(std::ostream &os,
                const std::vector<ChaosCampaignStats> &rows)
{
    os << std::left << std::setw(11) << "grid" << std::right
       << std::setw(7) << "proofs" << std::setw(7) << "clean"
       << std::setw(8) << "xforms" << std::setw(7) << "clean"
       << std::setw(8) << "intr" << std::setw(8) << "resume"
       << std::setw(8) << "flips" << std::setw(8) << "caught"
       << std::setw(8) << "cflips" << std::setw(8) << "abft"
       << std::setw(6) << "esc" << std::setw(8) << "faults"
       << std::setw(6) << "quar" << std::setw(12) << "mtbf[s]"
       << std::setw(10) << "res/prf" << std::setw(8) << "silent"
       << "\n";
    for (const auto &r : rows) {
        os << std::left << std::setw(11) << r.label << std::right
           << std::setw(7) << r.proofsCompleted << std::setw(7)
           << r.proofsFailedClean << std::setw(8)
           << r.transformsCompleted << std::setw(7)
           << r.transformsFailedClean << std::setw(8)
           << r.interruptions << std::setw(8) << r.resumes
           << std::setw(8) << r.checkpointCorruptions << std::setw(8)
           << r.checksumDetections << std::setw(8)
           << r.computeFlipsInjected << std::setw(8) << r.abftCaught
           << std::setw(6) << r.abftEscalated << std::setw(8)
           << r.injectedFaults << std::setw(6) << r.quarantines;
        os << std::setw(12);
        if (std::isinf(r.mtbfSeconds()))
            os << "inf";
        else
            os << std::scientific << std::setprecision(2)
               << r.mtbfSeconds() << std::defaultfloat;
        os << std::setw(10) << std::fixed << std::setprecision(2)
           << r.resumesPerProof() << std::defaultfloat << std::setw(8)
           << r.silentCorruptions << "\n";
    }
}

} // namespace unintt
