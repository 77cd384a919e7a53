#include "unintt/schedule.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "sim/hw_model.hh"
#include "util/logging.hh"

namespace unintt {

const char *
toString(StepKind kind)
{
    switch (kind) {
      case StepKind::Exchange:
        return "exchange";
      case StepKind::CrossStage:
        return "cross-stage";
      case StepKind::LocalPass:
        return "local-pass";
      case StepKind::FusedLocalPass:
        return "fused-local";
      case StepKind::Scale:
        return "scale";
      case StepKind::SpotCheck:
        return "spot-check";
    }
    return "?";
}

const char *
toString(ExecLevel level)
{
    switch (level) {
      case ExecLevel::Warp:
        return "warp";
      case ExecLevel::Block:
        return "block";
      case ExecLevel::Gpu:
        return "gpu";
      case ExecLevel::MultiGpu:
        return "multi-gpu";
      case ExecLevel::Node:
        return "node";
    }
    return "?";
}

KernelStats
crossStageEventStats(uint64_t chunk, size_t batch, size_t element_bytes,
                     const UniNttConfig &cfg, const CostConstants &costs)
{
    const size_t b = element_bytes;
    KernelStats k;
    k.fieldAdds = chunk * batch;     // one add or sub per output element
    k.fieldMuls = chunk / 2 * batch; // twiddle on the upper half outputs
    k.butterflies = chunk / 2 * batch;
    if (cfg.onTheFlyTwiddles) {
        k.fieldMuls += static_cast<uint64_t>(
            static_cast<double>(k.butterflies) * costs.onTheFlyExtraMuls);
    } else {
        k.globalReadBytes += static_cast<uint64_t>(
            static_cast<double>(k.butterflies) * b *
            costs.twiddleTableDramFraction);
    }
    // Read own chunk + received chunk, write result + link landing.
    k.globalReadBytes += 2 * chunk * b * batch;
    k.globalWriteBytes += 2 * chunk * b * batch;
    k.kernelLaunches = 1;
    return k;
}

KernelStats
gridPassEventStats(uint64_t chunk, const GridPassPlan &pass, size_t batch,
                   size_t element_bytes, const UniNttConfig &cfg,
                   const CostConstants &costs)
{
    const size_t b = element_bytes;
    KernelStats k;
    k.butterflies = chunk / 2 * pass.bits * batch;
    k.fieldMuls = k.butterflies;
    k.fieldAdds = 2 * k.butterflies;
    if (cfg.onTheFlyTwiddles) {
        k.fieldMuls += static_cast<uint64_t>(
            static_cast<double>(k.butterflies) * costs.onTheFlyExtraMuls);
    } else {
        k.globalReadBytes += static_cast<uint64_t>(
            static_cast<double>(k.butterflies) * b *
            costs.twiddleTableDramFraction);
    }
    // One coalesced read and write of the chunk per pass.
    k.globalReadBytes += chunk * b * batch;
    k.globalWriteBytes += chunk * b * batch;

    if (cfg.warpShuffle) {
        // Warp-resident stages exchange via the shuffle network; only
        // round boundaries cross shared memory.
        k.shuffles = chunk * pass.bits * batch;
        k.smemBytes = 2 * chunk * b * (pass.warpRounds - 1) * batch;
    } else {
        // Every stage round-trips through shared memory.
        k.smemBytes = 2 * chunk * b * pass.bits * batch;
    }
    if (!cfg.paddedSmem) {
        uint64_t accesses = k.smemBytes / b;
        k.smemBankConflicts = static_cast<uint64_t>(
            static_cast<double>(accesses) * costs.unpaddedConflictReplays);
    }
    uint64_t tiles = std::max<uint64_t>(1, chunk >> pass.bits);
    // The shuffle path only barriers at round boundaries; the pure smem
    // path barriers after every stage.
    k.syncs = tiles * (cfg.warpShuffle ? pass.warpRounds : pass.bits) *
              batch;
    k.kernelLaunches = 1;
    return k;
}

KernelStats
twiddlePassEventStats(uint64_t chunk, size_t batch, size_t element_bytes)
{
    const size_t b = element_bytes;
    KernelStats k;
    k.fieldMuls = chunk * batch;
    k.globalReadBytes = chunk * b * batch;
    k.globalWriteBytes = chunk * b * batch;
    k.kernelLaunches = 1;
    return k;
}

namespace {

/**
 * Group local stages [from, logN) into balanced passes of at most
 * @p tile_bits stages each, with the planner's ceil-division policy.
 * Rebuilt from the tile size rather than read from pl.passes because a
 * resume may start above pl.logMg (a cross stage executed under the
 * pre-degradation sharding); for from == pl.logMg and tile_bits ==
 * pl.logBlockTile this reproduces pl.passes exactly. Fused schedules
 * call it with fusedTileLog2(element bytes) instead, which is what
 * shrinks the pass count.
 *
 * With @p pin_tail (fused schedules) the final group is pinned to
 * exactly tile_bits stages: that group's stage-coupled super-block is
 * then exactly one tile, so it runs as the fast in-place contiguous
 * sweep, and the remaining head groups — which must stream through
 * per-thread tile buffers anyway — are as few and as shallow as
 * possible, which widens their column slabs and keeps the
 * gather/scatter copies contiguous. The pass count is unchanged.
 */
std::vector<std::pair<unsigned, GridPassPlan>>
localRangesFrom(const NttPlan &pl, unsigned logN, unsigned from,
                unsigned tile_bits, bool pin_tail)
{
    std::vector<std::pair<unsigned, GridPassPlan>> ranges;
    unsigned remaining = logN - from;
    if (remaining == 0)
        return ranges;
    unsigned tail = 0;
    if (pin_tail && remaining > tile_bits) {
        tail = tile_bits;
        remaining -= tail;
    }
    unsigned num_passes = (remaining + tile_bits - 1) / tile_bits;
    unsigned s = from;
    for (unsigned i = 0; i < num_passes; ++i) {
        unsigned left = num_passes - i;
        unsigned bits = (remaining + left - 1) / left;
        GridPassPlan pass;
        pass.bits = bits;
        pass.warpRounds = (bits + pl.logWarp - 1) / pl.logWarp;
        ranges.emplace_back(s, pass);
        s += bits;
        remaining -= bits;
    }
    if (tail != 0) {
        GridPassPlan pass;
        pass.bits = tail;
        pass.warpRounds = (tail + pl.logWarp - 1) / pl.logWarp;
        ranges.emplace_back(s, pass);
    }
    return ranges;
}

/** Schedule builder shared by the forward and inverse lowering. */
class ScheduleBuilder
{
  public:
    ScheduleBuilder(const NttPlan &pl, const MultiGpuSystem &sys,
                    size_t element_bytes, const UniNttConfig &cfg,
                    const CostConstants &costs, const ScheduleOptions &opts,
                    StageSchedule &out)
        : pl_(pl),
          sys_(sys),
          eb_(element_bytes),
          cfg_(cfg),
          costs_(costs),
          opts_(opts),
          out_(out),
          n_(1ULL << pl.logN),
          C_(pl.chunkElems())
    {
    }

    /** Exchange + CrossStage pair of one cross-GPU stage. */
    void
    crossStage(unsigned s)
    {
        const unsigned distance = 1u << (pl_.logMg - s - 1);
        unsigned effective = distance;
        sys_.fabricFor(distance, effective);
        const bool across = sys_.crossesNodes(distance);
        const ExecLevel level =
            across ? ExecLevel::Node : ExecLevel::MultiGpu;
        const std::string base =
            (across ? "node-stage-" : "mgpu-stage-") + std::to_string(s) +
            "/x" + std::to_string(distance);

        ScheduleStep ex;
        ex.kind = StepKind::Exchange;
        ex.level = level;
        ex.name = base + "-exchange";
        ex.sBegin = s;
        ex.sEnd = s + 1;
        ex.distance = distance;
        ex.effectiveDistance = effective;
        ex.crossesNodes = across;
        ex.comm = CommStats{C_ * eb_ * opts_.batch, 1, 0};
        out_.steps.push_back(std::move(ex));

        ScheduleStep cs;
        cs.kind = StepKind::CrossStage;
        cs.level = level;
        cs.name = base + "-compute";
        cs.sBegin = s;
        cs.sEnd = s + 1;
        cs.distance = distance;
        cs.effectiveDistance = effective;
        cs.crossesNodes = across;
        cs.stats = crossStageEventStats(C_, opts_.batch, eb_, cfg_, costs_);
        if (opts_.resilient) {
            // Checksum generation on send, verification on arrival.
            cs.stats.fieldAdds += 2 * C_ * opts_.batch;
        }
        out_.steps.push_back(std::move(cs));
    }

    /** A cross stage that became GPU-local after degradation. */
    void
    degradedLocalStage(unsigned s)
    {
        ScheduleStep st;
        st.kind = StepKind::LocalPass;
        st.level = ExecLevel::Block;
        st.name = "degraded-local-stage-" + std::to_string(s);
        st.sBegin = s;
        st.sEnd = s + 1;
        st.pass = GridPassPlan{1, 1};
        st.degraded = true;
        st.stats =
            gridPassEventStats(C_, st.pass, opts_.batch, eb_, cfg_, costs_);
        out_.steps.push_back(std::move(st));
    }

    /** An explicit twiddle pass (fusion off); functionally a no-op. */
    void
    twiddlePass(const std::string &why)
    {
        ScheduleStep st;
        st.kind = StepKind::Scale;
        st.level = ExecLevel::Gpu;
        st.name = "twiddle-pass-" + why;
        st.stats = twiddlePassEventStats(C_, opts_.batch, eb_);
        out_.steps.push_back(std::move(st));
    }

    /**
     * The GPU-local stage phase covering [from, logN), in execution
     * order (forward: outermost strides first; inverse: reversed),
     * with the un-fused algorithm's inter-pass twiddle passes
     * interleaved. Emits tile-fused groups (FusedLocalPass) when
     * cfg.fuseLocalPasses is set, one-DRAM-round-trip-per-stage-range
     * grid passes (LocalPass) otherwise; butterfly coverage is
     * identical either way.
     * The inverse's first step (its innermost pass) carries n^-1; its
     * multiplies join the step's counters unless the explicit
     * twiddle-pass-inverse-scale prices them (twiddle fusion off).
     */
    void
    localPhase(unsigned from, NttDirection dir)
    {
        const bool fused = cfg_.fuseLocalPasses;
        const unsigned tile_bits =
            fused ? fusedTileLog2(eb_) : pl_.logBlockTile;
        auto ranges =
            localRangesFrom(pl_, pl_.logN, from, tile_bits, fused);
        if (dir == NttDirection::Inverse)
            std::reverse(ranges.begin(), ranges.end());
        for (size_t i = 0; i < ranges.size(); ++i) {
            const auto &[s_begin, pass] = ranges[i];
            ScheduleStep st;
            st.kind = fused ? StepKind::FusedLocalPass : StepKind::LocalPass;
            st.level = ExecLevel::Block;
            st.name = (fused ? "fused-pass-" : "grid-pass-") +
                      std::to_string(i) + "/b" + std::to_string(pass.bits);
            st.sBegin = s_begin;
            st.sEnd = s_begin + pass.bits;
            st.pass = pass;
            st.tileLog2 = fused ? tile_bits : 0;
            st.stats =
                gridPassEventStats(C_, pass, opts_.batch, eb_, cfg_, costs_);
            if (dir == NttDirection::Inverse && i == 0) {
                st.applyInverseScale = true;
                if (cfg_.fuseTwiddles)
                    st.stats.fieldMuls += C_ * opts_.batch;
            }
            out_.steps.push_back(std::move(st));
            if (!cfg_.fuseTwiddles && i + 1 < ranges.size())
                twiddlePass("pass" + std::to_string(i));
        }
    }

    /** Post-transform spot check (resilient schedules). */
    void
    spotCheckStep()
    {
        ScheduleStep st;
        st.kind = StepKind::SpotCheck;
        st.level = ExecLevel::Gpu;
        st.name = "spot-check";
        st.stats.fieldMuls =
            static_cast<uint64_t>(opts_.spotChecks) * n_;
        st.stats.fieldAdds =
            static_cast<uint64_t>(opts_.spotChecks) * n_;
        st.stats.kernelLaunches = 1;
        out_.steps.push_back(std::move(st));
    }

  private:
    const NttPlan &pl_;
    const MultiGpuSystem &sys_;
    const size_t eb_;
    const UniNttConfig &cfg_;
    const CostConstants &costs_;
    const ScheduleOptions &opts_;
    StageSchedule &out_;
    const uint64_t n_;
    const uint64_t C_;
};

/**
 * Build the dependency DAG over @p sched's step list.
 *
 * With @p split (an overlapped schedule) Exchange and CrossStage steps
 * split into two double-buffered half-chunk nodes; everything else —
 * and every step of a linear schedule — is one node. Edges:
 *
 *  - chunk-aligned: when this step and the previous step are split
 *    identically, chunk k depends only on the previous step's chunk k
 *    (a cross-stage butterfly reads and writes exactly the element
 *    slice its exchange delivered, so the other half is independent);
 *  - full: an unsplit step (or a split mismatch) depends on every node
 *    of the previous step;
 *  - serialization: chunk k depends on chunk k-1 of its own step — a
 *    pairwise link moves one buffer at a time, and the butterfly
 *    engine drains chunks in order.
 *
 * Waves are longest-path levels. The chunk-aligned + serialization
 * combination staggers the cross phase so wave w holds the exchange of
 * chunk k+1 *and* the butterflies of chunk k: pure comm only at
 * pipeline fill (first half-chunk in) and pure compute only at drain
 * (last half-chunk out).
 */
void
buildScheduleDag(StageSchedule &sched, uint64_t chunk_elems, bool split)
{
    sched.dag.clear();
    sched.waves.clear();
    std::vector<uint32_t> prev;
    uint32_t prev_chunks = 1;
    for (size_t i = 0; i < sched.steps.size(); ++i) {
        const ScheduleStep &st = sched.steps[i];
        const bool splittable = split &&
                                (st.kind == StepKind::Exchange ||
                                 st.kind == StepKind::CrossStage) &&
                                !st.degraded && chunk_elems >= 2;
        const uint32_t chunks = splittable ? 2 : 1;
        std::vector<uint32_t> cur;
        for (uint32_t k = 0; k < chunks; ++k) {
            ScheduleDagNode nd;
            nd.step = static_cast<uint32_t>(i);
            nd.chunk = k;
            nd.chunkCount = chunks;
            nd.sliceBegin = chunk_elems * k / chunks;
            nd.sliceEnd = chunk_elems * (k + 1) / chunks;
            if (!prev.empty()) {
                if (chunks == prev_chunks && chunks > 1)
                    nd.deps.push_back(prev[k]);
                else
                    nd.deps = prev;
            }
            if (k > 0)
                nd.deps.push_back(cur[k - 1]);
            uint32_t wave = 0;
            for (uint32_t d : nd.deps)
                wave = std::max(wave, sched.dag[d].wave + 1);
            nd.wave = wave;
            cur.push_back(static_cast<uint32_t>(sched.dag.size()));
            sched.dag.push_back(std::move(nd));
        }
        prev = std::move(cur);
        prev_chunks = chunks;
    }
    uint32_t wave_count = 0;
    for (const ScheduleDagNode &nd : sched.dag)
        wave_count = std::max(wave_count, nd.wave + 1);
    sched.waves.resize(wave_count);
    for (size_t i = 0; i < sched.dag.size(); ++i)
        sched.waves[sched.dag[i].wave].push_back(
            static_cast<uint32_t>(i));
}

} // namespace

StageSchedule
compileSchedule(const NttPlan &pl, const MultiGpuSystem &sys,
                NttDirection dir, size_t element_bytes,
                const UniNttConfig &cfg, const CostConstants &costs,
                const ScheduleOptions &opts)
{
    StageSchedule sched;
    sched.logN = pl.logN;
    sched.dir = dir;
    sched.batch = opts.batch;
    sched.plan = pl;
    sched.resilient = opts.resilient;

    const unsigned orig_log_mg = opts.resume ? opts.origLogMg : pl.logMg;
    UNINTT_ASSERT(opts.resume ? opts.resilient : true,
                  "resume schedules are a resilient-execution construct");

    ScheduleBuilder b(pl, sys, element_bytes, cfg, costs, opts, sched);

    if (dir == NttDirection::Forward) {
        unsigned s = opts.resume ? opts.resumeStage : 0;
        if (s >= pl.logMg && s < orig_log_mg) {
            // The stage where degradation struck became GPU-local
            // under the shrunk sharding; run it as a one-bit pass.
            b.degradedLocalStage(s);
            ++s;
        } else {
            for (; s < pl.logMg; ++s)
                b.crossStage(s);
        }
        if (!cfg.fuseTwiddles && orig_log_mg > 0)
            b.twiddlePass("mgpu");
        b.localPhase(s, dir);
        if (opts.resilient && opts.spotChecks > 0)
            b.spotCheckStep();
    } else {
        if (!opts.resume)
            b.localPhase(pl.logMg, dir);
        const int from = opts.resume ? static_cast<int>(opts.resumeStage)
                                     : static_cast<int>(pl.logMg) - 1;
        for (int s = from; s >= 0; --s) {
            if (static_cast<unsigned>(s) >= pl.logMg)
                b.degradedLocalStage(static_cast<unsigned>(s));
            else
                b.crossStage(static_cast<unsigned>(s));
        }
        if (!cfg.fuseTwiddles && orig_log_mg > 0)
            b.twiddlePass("mgpu");
        if (!cfg.fuseTwiddles)
            b.twiddlePass("inverse-scale");
        if (opts.resilient && opts.spotChecks > 0)
            b.spotCheckStep();
    }

    // ABFT annotation: every compute step carries its checksum
    // transition — one random-linear-combination dot product per shard
    // after the step (the transition itself is a table switch between
    // precomputed boundary coefficient vectors, amortized like twiddle
    // tables). Folding the comparison cost into the step stats here is
    // what makes all three executors price the hardening tax
    // identically; only the resilient executor also performs the
    // comparison.
    if (opts.resilient && opts.abft) {
        bool first = true;
        for (ScheduleStep &st : sched.steps) {
            const bool compute = st.kind == StepKind::CrossStage ||
                                 st.kind == StepKind::LocalPass ||
                                 st.kind == StepKind::FusedLocalPass ||
                                 st.kind == StepKind::Scale;
            if (!compute)
                continue;
            st.abftCheckElems = pl.chunkElems();
            // The first checked step also accumulates the initial
            // checksum over the input shards (a second dot product).
            const uint64_t passes = first ? 2 : 1;
            const uint64_t elems =
                passes * pl.chunkElems() * opts.batch;
            st.stats.fieldMuls += elems;
            st.stats.fieldAdds += elems;
            // Re-read the shard and the coefficient slab once per pass.
            st.stats.globalReadBytes += 2 * elems * element_bytes;
            first = false;
        }
    }

    // Every schedule dispatches through its DAG. Overlap only pays off
    // on multi-GPU plans; single-GPU and overlap-off schedules stay
    // linear, one node per step in its own wave.
    sched.overlapped = cfg.overlapComm && pl.numGpus > 1;
    buildScheduleDag(sched, pl.chunkElems(), sched.overlapped);

    // Device-memory footprint: the data chunk, one exchange buffer for
    // the cross-GPU phase, and the twiddle table when it is not
    // generated on the fly.
    const uint64_t chunk_bytes = pl.chunkElems() * element_bytes * opts.batch;
    sched.peakDeviceBytes = deviceFootprintBytes(
        sys.gpu,
        {{"data", chunk_bytes},
         {"exchange-buffer", pl.logMg > 0 ? chunk_bytes : 0},
         {"twiddle-table", cfg.onTheFlyTwiddles
                               ? 0
                               : (1ULL << pl.logN) / 2 * element_bytes}});
    return sched;
}

std::string
StageSchedule::toString() const
{
    // Per-step wave span and whether any of its waves also hosts a
    // node of a *different* step — the latter is the overlap marker.
    std::vector<std::string> wave_col(steps.size(), "-");
    std::vector<std::string> ovl_col(steps.size(), "-");
    if (overlapped && !dag.empty()) {
        std::vector<uint32_t> lo(steps.size(), UINT32_MAX);
        std::vector<uint32_t> hi(steps.size(), 0);
        for (const ScheduleDagNode &nd : dag) {
            lo[nd.step] = std::min(lo[nd.step], nd.wave);
            hi[nd.step] = std::max(hi[nd.step], nd.wave);
        }
        std::vector<bool> shares(steps.size(), false);
        for (const auto &wave : waves)
            for (uint32_t a : wave)
                for (uint32_t b : wave)
                    if (dag[a].step != dag[b].step)
                        shares[dag[a].step] = true;
        for (size_t i = 0; i < steps.size(); ++i) {
            wave_col[i] = lo[i] == hi[i]
                              ? std::to_string(lo[i])
                              : std::to_string(lo[i]) + ".." +
                                    std::to_string(hi[i]);
            ovl_col[i] = shares[i] ? "yes" : "no";
        }
    }

    bool abft_on = false;
    for (const ScheduleStep &st : steps)
        abft_on = abft_on || st.abftCheckElems != 0;

    std::ostringstream os;
    os << "schedule: 2^" << logN << " " << unintt::toString(dir)
       << " x" << batch << " on " << plan.numGpus << " gpu"
       << (plan.numGpus == 1 ? "" : "s")
       << (resilient ? (abft_on ? " (resilient+abft)" : " (resilient)")
                     : "")
       << ", " << steps.size() << " steps, peak "
       << peakDeviceBytes << " B/gpu";
    if (overlapped)
        os << ", " << waves.size() << " waves (overlap on)";
    os << "\n";
    os << std::left << std::setw(4) << "#" << std::setw(15) << "kind"
       << std::setw(11) << "level" << std::setw(34) << "name"
       << std::setw(9) << "stages" << std::setw(13) << "muls"
       << std::setw(13) << "adds" << std::setw(14) << "dram-bytes"
       << std::setw(13) << "comm-bytes" << std::setw(8) << "x-dist"
       << std::setw(8) << "wave" << "overlap" << "\n";
    for (size_t i = 0; i < steps.size(); ++i) {
        const ScheduleStep &st = steps[i];
        std::string stages = "-";
        if (st.sEnd > st.sBegin)
            stages = std::to_string(st.sBegin) + ".." +
                     std::to_string(st.sEnd);
        os << std::left << std::setw(4) << i << std::setw(15)
           << unintt::toString(st.kind) << std::setw(11)
           << unintt::toString(st.level) << std::setw(34) << st.name
           << std::setw(9) << stages << std::setw(13) << st.stats.fieldMuls
           << std::setw(13) << st.stats.fieldAdds << std::setw(14)
           << st.stats.globalBytes() << std::setw(13) << st.comm.bytesPerGpu
           << std::setw(8)
           << (st.distance != 0 ? std::to_string(st.distance) : "-")
           << std::setw(8) << wave_col[i] << ovl_col[i] << "\n";
    }
    return os.str();
}

} // namespace unintt
