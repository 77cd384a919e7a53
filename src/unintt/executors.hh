/**
 * @file
 * Step executors: the interpreters of the stage-schedule IR
 * (schedule.hh).
 *
 * The executor contract: an executor consumes a schedule's DAG waves
 * in order via onWave() and appends the phases of every step whose
 * last node ran to a SimReport. It may return a non-ok Status
 * (aborting the run) or request a reschedule (the dispatch loop swaps
 * in the executor's recompiled schedule and restarts from its first
 * wave — how mid-run degradation re-plans the remaining stages).
 *
 *  - AnalyticStepExecutor prices each wave's precomputed counters
 *    without touching data (analyticRun).
 *  - FunctionalStepExecutor additionally executes the bit-exact field
 *    arithmetic on the host pool, then defers to the analytic pricing
 *    — the timeline is identical by construction.
 *  - ResilientStepExecutor decorates the functional execution of a
 *    single transform with the fault machinery: checksummed exchanges,
 *    bounded-backoff retries, the straggler watchdog, degraded-mode
 *    re-plans, and the post-transform spot check. Resilience decorates
 *    the node dispatch; it does not fork the stage loops.
 *
 * Phase-order note: the IR lists an Exchange before the CrossStage
 * that consumes it (dataflow order), while the report historically
 * shows compute first and the exchange second (with the overlap split
 * computed against that compute). Executors therefore hold the
 * exchange's resolved time and emit its comm phase right after the
 * paired CrossStage's kernel phase.
 */

#ifndef UNINTT_UNINTT_EXECUTORS_HH
#define UNINTT_UNINTT_EXECUTORS_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "field/dispatch.hh"
#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "ntt/twiddle.hh"
#include "ntt/twiddle_cache.hh"
#include "sim/fault.hh"
#include "sim/multi_gpu.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"
#include "unintt/abft.hh"
#include "unintt/config.hh"
#include "unintt/distributed.hh"
#include "unintt/health.hh"
#include "unintt/schedule.hh"
#include "unintt/verify.hh"
#include "util/bitops.hh"
#include "util/checksum.hh"
#include "util/logging.hh"
#include "util/status.hh"
#include "util/thread_pool.hh"

namespace unintt {

/** Outcome of executing one wave (or one node of it). */
struct StepAction
{
    Status status;
    /**
     * When true, the dispatch loop replaces the schedule with the
     * executor's recompiled one and restarts at its first wave.
     */
    bool reschedule = false;
};

/**
 * Run @p sched through @p exec. The single interpreter loop shared by
 * run(), analyticRun() and runResilient().
 *
 * Every schedule carries its DAG (schedule.hh) and dispatches wave by
 * wave: every node of a wave is ready (all dependencies ran in earlier
 * waves). A linear schedule is one node per step in its own wave; an
 * overlapped one shares a wave between the exchange of chunk k+1 and
 * the butterflies of chunk k. A reschedule swaps in the executor's
 * recompiled schedule and restarts it at its first wave.
 */
template <typename Exec>
Status
dispatchSchedule(std::shared_ptr<const StageSchedule> sched, Exec &exec)
{
    size_t w = 0;
    while (w < sched->waves.size()) {
        StepAction act = exec.onWave(*sched, w);
        if (!act.status.ok())
            return act.status;
        if (act.reschedule) {
            sched = exec.reschedule();
            UNINTT_ASSERT(sched != nullptr, "reschedule returned nothing");
            w = 0;
        } else {
            ++w;
        }
    }
    return Status();
}

// ---------------------------------------------------------------------
// Shared functional kernels (bit-exact host execution).
// ---------------------------------------------------------------------

/**
 * hostParallelFor cost hint of @p butterflies radix-2 butterflies:
 * a forward butterfly is 2 adds + 1 mul (~3 unit ops), an inverse one
 * pays an extra mul for the pre-multiplied twiddle (~4). Unified here
 * so every kernel reports the same units and the pool's serial
 * threshold splits work consistently in both directions.
 */
constexpr uint64_t
kernelCost(uint64_t butterflies, NttDirection dir)
{
    return butterflies * (dir == NttDirection::Forward ? 3 : 4);
}

/**
 * Lane-aware cost hint: a vector kernel path retires @p lanes
 * butterflies per step, so the per-unit work the pool's serial
 * threshold sees shrinks accordingly. lanes == 1 reproduces the
 * scalar hint exactly; the hint never collapses to zero for nonzero
 * work.
 */
constexpr uint64_t
kernelCost(uint64_t butterflies, NttDirection dir, unsigned lanes)
{
    const uint64_t c =
        kernelCost(butterflies, dir) / (lanes > 0 ? lanes : 1);
    return butterflies > 0 && c == 0 ? 1 : c;
}

/**
 * Functional butterflies of one cross-GPU stage over the element slice
 * [c_begin, c_end) of every chunk. Each butterfly couples position c
 * of a pair's two chunks and nothing else, so a slice reads and writes
 * only its own positions of both chunks: an overlapped schedule's
 * chunk nodes run it in place, one slice at a time, and read the
 * partner chunk directly.
 */
template <NttField F>
void
crossStageCompute(DistributedVector<F> &data, unsigned s, unsigned logN,
                  const TwiddleSlabs<F> &slabs, NttDirection dir,
                  unsigned lanes, uint64_t c_begin, uint64_t c_end,
                  const FieldKernels<F> &fk = fieldKernels<F>())
{
    const unsigned G = data.numGpus();
    const unsigned logMg = log2Exact(G);
    const uint64_t n = 1ULL << logN;
    const uint64_t C = n / G;
    const unsigned partner_gap = 1u << (logMg - s - 1); // in GPU indices
    const uint64_t span = c_end - c_begin;

    // Lower-half GPUs of the exchanging pairs. Every pair touches only
    // its own two chunks, so the pairs — further sliced along the chunk
    // when there are fewer pairs than host lanes — execute concurrently
    // on the pool; writes are disjoint across work units, so the result
    // is bit-identical for every thread count.
    std::vector<unsigned> lows;
    lows.reserve(G / 2);
    for (unsigned g = 0; g < G; ++g)
        if ((g / partner_gap) % 2 == 0)
            lows.push_back(g);

    uint64_t slices = 1;
    if (lanes > 1 && lows.size() < lanes)
        slices = std::min<uint64_t>(
            span, (2ULL * lanes + lows.size() - 1) / lows.size());

    // Compacted stage slab: tws[j] == full_table[j << s], unit stride.
    const F *tws = slabs.slab(s);
    hostParallelFor(
        lows.size() * slices, kernelCost(span / slices, dir, fk.lanes),
        lanes, [&](size_t unit) {
            const unsigned g = lows[unit / slices];
            const uint64_t slice = unit % slices;
            const uint64_t c0 = c_begin + span * slice / slices;
            const uint64_t c1 = c_begin + span * (slice + 1) / slices;
            auto &lo = data.chunk(g);
            auto &hi = data.chunk(g + partner_gap);
            // Position of this GPU's chunk inside the half-block.
            const uint64_t j0 =
                static_cast<uint64_t>(g % partner_gap) * C;
            if (dir == NttDirection::Forward)
                fk.bflyFwd(lo.data() + c0, hi.data() + c0,
                           tws + j0 + c0, 1, c1 - c0);
            else
                fk.bflyInv(lo.data() + c0, hi.data() + c0,
                           tws + j0 + c0, 1, c1 - c0);
        });
}

/** Lower-half GPU of exchanging pair @p pair at partner gap @p gap. */
constexpr unsigned
pairLowGpu(unsigned pair, unsigned gap)
{
    return (pair / gap) * 2 * gap + (pair % gap);
}

/** Functional butterflies of local stages [s_begin, s_end). */
template <NttField F>
void
localStagesCompute(DistributedVector<F> &data, unsigned s_begin,
                   unsigned s_end, unsigned logN,
                   const TwiddleSlabs<F> &slabs, NttDirection dir,
                   unsigned lanes,
                   const FieldKernels<F> &fk = fieldKernels<F>())
{
    const uint64_t n = 1ULL << logN;
    const unsigned G = data.numGpus();
    const uint64_t C = data.chunkSize();

    // Stage order: DIF descends (strides shrink), DIT ascends.
    std::vector<unsigned> stages;
    for (unsigned s = s_begin; s < s_end; ++s)
        stages.push_back(s);
    if (dir == NttDirection::Inverse)
        std::reverse(stages.begin(), stages.end());

    // One fork/join per stage: within a stage every butterfly block is
    // independent, so (gpu, block, j-slice) tuples fan out over the
    // pool and the join is the barrier the next stage needs. Work units
    // write disjoint element ranges, which keeps the output
    // bit-identical for every thread count.
    for (unsigned s : stages) {
        const uint64_t half = n >> (s + 1);
        UNINTT_ASSERT(2 * half <= C, "stage is not GPU-local");
        const uint64_t block = 2 * half;
        const uint64_t blocks_per_gpu = C / block;
        const uint64_t units =
            static_cast<uint64_t>(G) * blocks_per_gpu;
        uint64_t jslices = 1;
        if (lanes > 1 && units < lanes)
            jslices = std::min<uint64_t>(
                half, (2ULL * lanes + units - 1) / units);

        const F *tws = slabs.slab(s); // tws[j] == full_table[j << s]
        hostParallelFor(
            units * jslices,
            kernelCost(half / jslices, dir, fk.lanes), lanes,
            [&](size_t u) {
                const uint64_t unit = u / jslices;
                const uint64_t slice = u % jslices;
                const unsigned g =
                    static_cast<unsigned>(unit / blocks_per_gpu);
                const uint64_t start =
                    (unit % blocks_per_gpu) * block;
                const uint64_t jb = half * slice / jslices;
                const uint64_t je = half * (slice + 1) / jslices;
                auto &chunk = data.chunk(g);
                F *p0 = chunk.data() + start + jb;
                if (dir == NttDirection::Forward)
                    fk.bflyFwd(p0, p0 + half, tws + jb, 1, je - jb);
                else
                    fk.bflyInv(p0, p0 + half, tws + jb, 1, je - jb);
            });
    }
}

/**
 * Run butterfly stages [s0, s1) of a size-n transform over one column
 * slab of a stage-coupled super-block held in @p buf:
 * buf[r * row_stride + w] is the element at row r, column col0 + w of
 * the (2^(s1-s0) x h1) super-block matrix, h1 = n >> s1. Stage s pairs
 * rows at distance 2^(s1-s-1); its twiddle for (row r, column c) is
 * slab(s)[(r mod 2^(s1-s)) * h1 + c], the row residue being below the
 * pair distance. Forward fuses stage pairs into the radix-4 butterfly
 * of radix4.hh rewritten onto the compacted slabs (the tw[2e]/tw[3e]
 * reads become slab(s+1)[j] and the sign-folded slab(s)[3j]), plus a
 * trailing radix-2 stage when the group has an odd stage count; the
 * inverse runs radix-2 DIT with the stage order reversed. Exact field
 * arithmetic on canonical representations makes both bit-identical to
 * running the stages separately.
 */
template <NttField F>
void
fusedTileStages(F *buf, size_t row_stride, size_t cols, size_t col0,
                size_t h1, unsigned s0, unsigned s1,
                const TwiddleSlabs<F> &slabs, NttDirection dir,
                const FieldKernels<F> &fk = fieldKernels<F>())
{
    const size_t rows = size_t{1} << (s1 - s0);
    if (dir == NttDirection::Forward) {
        const F im = slabs.fourthRoot(); // root^(n/4) of the radix-4 step
        unsigned s = s0;
        for (; s + 2 <= s1; s += 2) {
            const size_t d = size_t{1} << (s1 - s - 2);
            const F *tw0 = slabs.slab(s);
            const F *tw1 = slabs.slab(s + 1);
            const size_t hs = slabs.count(s);
            for (size_t q = 0; q < rows; q += 4 * d) {
                for (size_t rq = 0; rq < d; ++rq) {
                    F *r0 = buf + (q + rq) * row_stride;
                    F *r1 = r0 + d * row_stride;
                    F *r2 = r1 + d * row_stride;
                    F *r3 = r2 + d * row_stride;
                    // The kernel folds the tw0[3j] wrap past hs as
                    // (t13m - t02m) * tw0[3j - hs] — the same values
                    // the branchy form multiplies (w^(hs<<s) = -1 and
                    // (-a)*b == a*(-b) on canonical representations),
                    // so the bytes cannot differ.
                    fk.r4Fwd(r0, r1, r2, r3, tw0, tw1, im,
                             rq * h1 + col0, hs, cols);
                }
            }
        }
        if (s < s1) {
            // Trailing radix-2 stage of an odd group: s == s1 - 1, so
            // the pair distance is one row and the slab index is the
            // column alone.
            const F *tws = slabs.slab(s);
            for (size_t q = 0; q < rows; q += 2) {
                F *r0 = buf + q * row_stride;
                F *r1 = r0 + row_stride;
                fk.bflyFwd(r0, r1, tws + col0, 1, cols);
            }
        }
    } else {
        for (unsigned s = s1; s-- > s0;) {
            const size_t d = size_t{1} << (s1 - s - 1);
            const F *tws = slabs.slab(s);
            for (size_t q = 0; q < rows; q += 2 * d) {
                for (size_t rq = 0; rq < d; ++rq) {
                    F *r0 = buf + (q + rq) * row_stride;
                    F *r1 = r0 + d * row_stride;
                    fk.bflyInv(r0, r1, tws + rq * h1 + col0, 1, cols);
                }
            }
        }
    }
}

/**
 * fusedTileStages specialized to a full contiguous super-block
 * (row_stride == h1, cols == h1, col0 == 0). The row/column loops
 * collapse: at stage s the butterfly half-span is SB >> (s-s0+1)
 * contiguous elements and the twiddle index equals the flat offset
 * within the block, so every inner loop walks both data and slab at
 * unit stride with no per-row pointer arithmetic. Same butterflies,
 * same exact arithmetic — bit-identical to the general form; this is
 * the shape the in-place (unsliced) dispatch uses because the general
 * form's inner width collapses to h1 (often 1) for late-stage groups.
 */
template <NttField F>
void
fusedSpanStages(F *buf, size_t sb_elems, unsigned s0, unsigned s1,
                const TwiddleSlabs<F> &slabs, NttDirection dir,
                const FieldKernels<F> &fk = fieldKernels<F>(),
                unsigned max_radix_log2 = 3)
{
    if (dir == NttDirection::Forward) {
        const F im = slabs.fourthRoot();
        unsigned s = s0;
        size_t span = sb_elems; // independent block span at stage s
        // Radix-8 primary loop: three stages per sweep, applied in
        // registers exactly as the per-stage path would (stage s,
        // then s+1, then s+2), so the result is bit-identical by
        // construction. Every twiddle index is a plain block-local
        // offset and stays inside its slab — no wrap handling. One
        // load+store per element per *three* stages is what moves
        // the streamed head groups from 2 sweeps per pair to 1 per
        // triple. max_radix_log2 caps the mix (3 = r8+r4+r2,
        // 2 = r4+r2, 1 = r2-only) for the autotuner's radix search;
        // every mix applies the identical per-stage arithmetic, so
        // the bytes cannot differ.
        if (max_radix_log2 >= 3)
        for (; s + 3 <= s1; s += 3, span /= 8) {
            const size_t q8 = span / 8;
            const F *twa = slabs.slab(s);
            const F *twb = slabs.slab(s + 1);
            const F *twc = slabs.slab(s + 2);
            if (q8 == 1) {
                // span == 8: every block sees the same seven
                // twiddles, and the ones at slab index 0 are w^0 == 1
                // — multiplying by one is the exact identity, so
                // those five multiplies are skipped outright and the
                // remaining twiddles are hoisted out of the block
                // loop. This is the pass with the most blocks, so
                // the per-block pointer setup matters too.
                const F wa1 = twa[1], wa2 = twa[2], wa3 = twa[3];
                const F wb1 = twb[1];
                for (size_t start = 0; start < sb_elems; start += 8) {
                    F *p = buf + start;
                    const F a0 = p[0], a1 = p[1];
                    const F a2 = p[2], a3 = p[3];
                    const F a4 = p[4], a5 = p[5];
                    const F a6 = p[6], a7 = p[7];
                    const F u0 = a0 + a4, u4 = a0 - a4;
                    const F u1 = a1 + a5, u5 = (a1 - a5) * wa1;
                    const F u2 = a2 + a6, u6 = (a2 - a6) * wa2;
                    const F u3 = a3 + a7, u7 = (a3 - a7) * wa3;
                    const F v0 = u0 + u2, v2 = u0 - u2;
                    const F v1 = u1 + u3, v3 = (u1 - u3) * wb1;
                    const F v4 = u4 + u6, v6 = u4 - u6;
                    const F v5 = u5 + u7, v7 = (u5 - u7) * wb1;
                    p[0] = v0 + v1;
                    p[1] = v0 - v1;
                    p[2] = v2 + v3;
                    p[3] = v2 - v3;
                    p[4] = v4 + v5;
                    p[5] = v4 - v5;
                    p[6] = v6 + v7;
                    p[7] = v6 - v7;
                }
                continue;
            }
            for (size_t start = 0; start < sb_elems; start += span) {
                F *p0 = buf + start;
                fk.r8Fwd(p0, p0 + q8, p0 + 2 * q8, p0 + 3 * q8,
                         p0 + 4 * q8, p0 + 5 * q8, p0 + 6 * q8,
                         p0 + 7 * q8, twa, twb, twc, q8);
            }
        }
        if (max_radix_log2 >= 2)
        for (; s + 2 <= s1; s += 2, span /= 4) {
            const size_t quarter = span / 4;
            const F *tw0 = slabs.slab(s);
            const F *tw1 = slabs.slab(s + 1);
            const size_t hs = slabs.count(s);
            // tw[3j] wraps past hs with a sign flip (w^(hs<<s) =
            // w^(n/2) = -1); the kernel folds the sign into the
            // butterfly as (b-a)*w instead of (a-b)*(-w) and splits
            // the loop at the wrap point (r4SplitIndex) so the hot
            // loop stays branchless. Exact arithmetic: bit-identical.
            if (quarter == 1) {
                // span == 4: all three stage twiddles sit at slab
                // index 0 and equal one; only the fourth-root factor
                // survives (see the span == 8 case above).
                for (size_t start = 0; start < sb_elems; start += 4) {
                    F *p = buf + start;
                    const F a0 = p[0], a1 = p[1];
                    const F a2 = p[2], a3 = p[3];
                    const F t02p = a0 + a2, t02m = a0 - a2;
                    const F t13p = a1 + a3;
                    const F t13m = (a1 - a3) * im;
                    p[0] = t02p + t13p;
                    p[1] = t02p - t13p;
                    p[2] = t02m + t13m;
                    p[3] = t02m - t13m;
                }
                continue;
            }
            for (size_t start = 0; start < sb_elems; start += span) {
                F *p0 = buf + start;
                fk.r4Fwd(p0, p0 + quarter, p0 + 2 * quarter,
                         p0 + 3 * quarter, tw0, tw1, im, 0, hs,
                         quarter);
            }
        }
        // Radix-2 remainder: one stage after the r4 loop under the
        // default mix, the whole group when the tuner caps the mix at
        // r2-only.
        for (; s < s1; ++s, span /= 2) {
            const size_t half = span / 2;
            const F *tws = slabs.slab(s);
            if (half == 1) {
                // span == 2: the only twiddle is w^0 == 1.
                for (size_t start = 0; start < sb_elems; start += 2) {
                    const F a = buf[start];
                    const F b = buf[start + 1];
                    buf[start] = a + b;
                    buf[start + 1] = a - b;
                }
            } else {
                for (size_t start = 0; start < sb_elems;
                     start += span) {
                    F *p0 = buf + start;
                    fk.bflyFwd(p0, p0 + half, tws, 1, half);
                }
            }
        }
    } else {
        size_t half = sb_elems >> (s1 - s0);
        for (unsigned s = s1; s-- > s0; half *= 2) {
            const F *tws = slabs.slab(s);
            for (size_t start = 0; start < sb_elems;
                 start += 2 * half) {
                F *p0 = buf + start;
                fk.bflyInv(p0, p0 + half, tws, 1, half);
            }
        }
    }
}

/**
 * Tile-fused functional butterflies of local stages [s_begin, s_end):
 * one fork/join per *group* instead of per stage, with every stage of
 * the group running before the data leaves the unit. The schedule's
 * tail group is sized to the resolved host tile (SB == 2^tileLog2),
 * so its flat sweep is cache-resident end to end; head groups whose
 * super-block exceeds the tile stream the same fused sweep over the
 * block — still one radix-4 pass per stage *pair* where the per-stage
 * path pays a full pass per stage. When whole super-blocks are
 * scarcer than lanes, units split into column slices (columns of the
 * super-block never couple, so any column subset is independent).
 * Work units write disjoint element ranges, which keeps the output
 * bit-identical to localStagesCompute for every thread count, tile
 * size, and slicing.
 */
template <NttField F>
void
fusedLocalStagesCompute(DistributedVector<F> &data, unsigned s_begin,
                        unsigned s_end, unsigned logN, unsigned tile_log2,
                        const TwiddleSlabs<F> &slabs, NttDirection dir,
                        unsigned lanes,
                        const FieldKernels<F> &fk = fieldKernels<F>(),
                        unsigned max_radix_log2 = 3)
{
    (void)tile_log2; // geometry lives in the schedule's group sizes
    const uint64_t n = 1ULL << logN;
    const unsigned G = data.numGpus();
    const uint64_t C = data.chunkSize();
    const unsigned t = s_end - s_begin;
    const uint64_t SB = n >> s_begin; // stage-coupled super-block
    const uint64_t h1 = n >> s_end;   // its column count
    UNINTT_ASSERT(SB <= C, "fused group is not GPU-local");
    const uint64_t sbs_per_gpu = C / SB;

    const uint64_t units = static_cast<uint64_t>(G) * sbs_per_gpu;
    uint64_t csl = 1;
    if (lanes > 1 && units < lanes)
        csl = std::min<uint64_t>(h1,
                                 (2ULL * lanes + units - 1) / units);
    hostParallelFor(
        units * csl, kernelCost(SB / 2 * t / csl, dir, fk.lanes),
        lanes, [&](size_t u) {
            const uint64_t unit = u / csl;
            const uint64_t slice = u % csl;
            const unsigned g =
                static_cast<unsigned>(unit / sbs_per_gpu);
            const uint64_t sb = unit % sbs_per_gpu;
            F *base = data.chunk(g).data() + sb * SB;
            if (csl == 1) {
                // Whole super-block in one unit: flat sweep.
                fusedSpanStages(base, SB, s_begin, s_end, slabs, dir,
                                fk, max_radix_log2);
                return;
            }
            const uint64_t c0 = h1 * slice / csl;
            const uint64_t c1 = h1 * (slice + 1) / csl;
            fusedTileStages(base + c0, h1, c1 - c0, c0, h1, s_begin,
                            s_end, slabs, dir, fk);
        });
}

/** Functional n^-1 scaling of every chunk of every batch entry. */
template <NttField F>
void
inverseScaleCompute(std::vector<DistributedVector<F> *> &batch,
                    uint64_t n, unsigned lanes,
                    const FieldKernels<F> &fk = fieldKernels<F>())
{
    F scale = inverseScale<F>(n);
    const unsigned G = batch.empty() ? 1 : batch[0]->numGpus();
    hostParallelFor(batch.size() * G, batch.empty() ? 0 : batch[0]->chunkSize(),
                    lanes, [&](size_t u) {
                        auto &chunk = batch[u / G]->chunk(
                            static_cast<unsigned>(u % G));
                        fk.scaleSpan(chunk.data(), scale,
                                     chunk.size());
                    });
}

/**
 * Functional bit-reversal gather: redistribute the forward transform's
 * globally bit-reversed output into natural order.
 */
template <NttField F>
void
bitRevGatherCompute(DistributedVector<F> &data, unsigned logN)
{
    const std::vector<F> got = data.toGlobal();
    std::vector<F> natural(got.size());
    for (uint64_t i = 0; i < got.size(); ++i)
        natural[i] = got[bitReverse(i, logN)];
    data = DistributedVector<F>::fromGlobal(natural, data.numGpus());
}

// ---------------------------------------------------------------------
// Analytic executor: price the precomputed counters, touch no data.
// ---------------------------------------------------------------------

class AnalyticStepExecutor
{
  public:
    AnalyticStepExecutor(const MultiGpuSystem &sys, const PerfModel &perf,
                         SimReport &report)
        : sys_(sys), perf_(perf), report_(report)
    {
    }

    /** Price every node of wave @p w. */
    StepAction
    onWave(const StageSchedule &sched, size_t w)
    {
        priceWave(sched, w);
        return StepAction{};
    }

    /** Plain executors never request a reschedule. */
    std::shared_ptr<const StageSchedule>
    reschedule()
    {
        panic("plain executors cannot reschedule");
    }

  protected:
    /** Reset the per-schedule DAG accounting on a schedule swap. */
    void
    initDagState(const StageSchedule &sched)
    {
        if (dagSched_ == &sched)
            return;
        dagSched_ = &sched;
        remaining_.assign(sched.steps.size(), 0);
        for (const ScheduleDagNode &nd : sched.dag)
            remaining_[nd.step]++;
        exVisible_.assign(sched.steps.size(), 0.0);
        exHidden_.assign(sched.steps.size(), 0.0);
    }

    /**
     * Price one wave of the schedule's DAG. The wave's makespan is
     * max(comm, compute): only the excess of the wave's exchange time
     * over its butterfly time is visible, and that visible/hidden
     * split is attributed back to each exchange step proportionally to
     * its nodes' share of the wave's comm. A lone exchange node (a
     * linear schedule's wave) has no compute beside it, so its whole
     * time is visible. Phases materialize once per *step* — same
     * names, same order, same CommStats in both dispatch modes — when
     * the step's last node completes, so reports keep their historical
     * shape and total fabric bytes/messages are untouched; only the
     * makespan of an overlapped schedule shrinks.
     */
    void
    priceWave(const StageSchedule &sched, size_t w)
    {
        initDagState(sched);
        double comp_w = 0.0;
        double comm_w = 0.0;
        std::vector<std::pair<uint32_t, double>> comm_nodes;
        std::vector<uint32_t> completed;
        const double chunk_elems =
            static_cast<double>(sched.plan.chunkElems());
        for (uint32_t ni : sched.waves[w]) {
            const ScheduleDagNode &nd = sched.dag[ni];
            const ScheduleStep &st = sched.steps[nd.step];
            const double frac =
                static_cast<double>(nd.sliceEnd - nd.sliceBegin) /
                chunk_elems;
            if (st.kind == StepKind::Exchange) {
                const Interconnect &fabric =
                    st.crossesNodes ? sys_.nodeFabric : sys_.fabric;
                const double t =
                    fabric.pairwiseExchangeTime(st.comm.bytesPerGpu,
                                                st.effectiveDistance) *
                    frac;
                comm_w += t;
                comm_nodes.emplace_back(nd.step, t);
            } else {
                comp_w += perf_.kernelSeconds(st.stats) * frac;
            }
            UNINTT_ASSERT(remaining_[nd.step] > 0,
                          "DAG node executed twice");
            if (--remaining_[nd.step] == 0)
                completed.push_back(nd.step);
        }
        const double visible_w = std::max(0.0, comm_w - comp_w);
        const double hidden_w = comm_w - visible_w;
        for (const auto &[sidx, t] : comm_nodes) {
            const double share = comm_w > 0.0 ? t / comm_w : 0.0;
            exVisible_[sidx] += visible_w * share;
            exHidden_[sidx] += hidden_w * share;
        }
        std::sort(completed.begin(), completed.end());
        for (uint32_t sidx : completed)
            emitCompleted(sched, sidx);
    }

    /** Emit the phases of a step whose last DAG node just ran. */
    void
    emitCompleted(const StageSchedule &sched, uint32_t sidx)
    {
        const ScheduleStep &st = sched.steps[sidx];
        switch (st.kind) {
          case StepKind::Exchange:
            // Deferred: its comm phase rides behind the paired
            // CrossStage, preserving the report's historical order.
            return;
          case StepKind::CrossStage: {
            report_.addKernelPhase(st.name, st.stats, perf_);
            tagPhase(st);
            UNINTT_ASSERT(sidx > 0 && sched.steps[sidx - 1].kind ==
                                          StepKind::Exchange,
                          "cross stage without a preceding exchange");
            const ScheduleStep &ex = sched.steps[sidx - 1];
            report_.addCommPhase(ex.name, exVisible_[sidx - 1], ex.comm,
                                 exHidden_[sidx - 1]);
            tagPhase(ex);
            return;
          }
          case StepKind::LocalPass:
          case StepKind::FusedLocalPass:
          case StepKind::Scale:
          case StepKind::SpotCheck:
            report_.addKernelPhase(st.name, st.stats, perf_);
            tagPhase(st);
            return;
          case StepKind::BitRevGather: {
            report_.addKernelPhase(st.name, st.stats, perf_);
            tagPhase(st);
            if (st.comm.bytesPerGpu > 0) {
                double t = sys_.fabric.allToAllTime(
                    st.comm.bytesPerGpu, sys_.numGpus);
                report_.addCommPhase(st.name + "-alltoall", t, st.comm);
                tagPhase(st);
            }
            return;
          }
        }
    }

    /** Attribute the just-added phase to its IR step. */
    void
    tagPhase(const ScheduleStep &st)
    {
        report_.tagLastPhase(toString(st.kind), toString(st.level));
    }

    const MultiGpuSystem &sys_;
    const PerfModel &perf_;
    SimReport &report_;

    /** DAG accounting, reset per schedule (initDagState). */
    const StageSchedule *dagSched_ = nullptr;
    std::vector<uint32_t> remaining_;
    std::vector<double> exVisible_;
    std::vector<double> exHidden_;
};

// ---------------------------------------------------------------------
// Functional executor: bit-exact host execution + analytic pricing.
// ---------------------------------------------------------------------

template <NttField F>
class FunctionalStepExecutor : public AnalyticStepExecutor
{
  public:
    FunctionalStepExecutor(const MultiGpuSystem &sys, const PerfModel &perf,
                           SimReport &report,
                           std::vector<DistributedVector<F> *> &batch,
                           const TwiddleSlabs<F> &slabs, unsigned logN,
                           NttDirection dir, unsigned lanes,
                           const FieldKernels<F> &fk = fieldKernels<F>(),
                           unsigned max_radix_log2 = 3)
        : AnalyticStepExecutor(sys, perf, report),
          batch_(batch),
          slabs_(slabs),
          logN_(logN),
          dir_(dir),
          lanes_(lanes),
          fk_(fk),
          maxRadixLog2_(max_radix_log2)
    {
    }

    /**
     * Run the butterflies of every node of wave @p w, then defer to the
     * shared analytic wave pricing so the functional timeline stays
     * identical to analyticRun by construction. Exchange nodes move no
     * host data: a cross-stage node reads its partner chunk in place,
     * and the DAG's chunk-aligned edges guarantee that every slice it
     * reads was finished by its dependencies.
     */
    StepAction
    onWave(const StageSchedule &sched, size_t w)
    {
        for (uint32_t ni : sched.waves[w])
            computeNode(sched.steps[sched.dag[ni].step], sched.dag[ni]);
        priceWave(sched, w);
        return StepAction{};
    }

    /** Span-kernel dispatches through the bound table (router stats). */
    uint64_t kernelDispatches() const { return kernelDispatches_; }

    /** The kernel table this executor runs on. */
    const FieldKernels<F> &kernels() const { return fk_; }

  private:
    /** The functional work of one DAG node. */
    void
    computeNode(const ScheduleStep &st, const ScheduleDagNode &nd)
    {
        switch (st.kind) {
          case StepKind::CrossStage:
            for (auto *d : batch_)
                crossStageCompute(*d, st.sBegin, logN_, slabs_, dir_,
                                  lanes_, nd.sliceBegin, nd.sliceEnd, fk_);
            kernelDispatches_++;
            break;
          case StepKind::LocalPass:
            for (auto *d : batch_)
                localStagesCompute(*d, st.sBegin, st.sEnd, logN_, slabs_,
                                   dir_, lanes_, fk_);
            kernelDispatches_++;
            break;
          case StepKind::FusedLocalPass:
            for (auto *d : batch_)
                fusedLocalStagesCompute(*d, st.sBegin, st.sEnd, logN_,
                                        st.tileLog2, slabs_, dir_,
                                        lanes_, fk_, maxRadixLog2_);
            kernelDispatches_++;
            break;
          case StepKind::Scale:
            // Explicit twiddle passes are functionally no-ops (the
            // fused execution already applied the factors); only the
            // inverse n^-1 scaling does real work.
            if (st.applyInverseScale) {
                inverseScaleCompute(batch_, 1ULL << logN_, lanes_,
                                    fk_);
                kernelDispatches_++;
            }
            break;
          case StepKind::BitRevGather:
            for (auto *d : batch_)
                bitRevGatherCompute(*d, logN_);
            break;
          case StepKind::Exchange:
          case StepKind::SpotCheck:
            break;
        }
    }

    std::vector<DistributedVector<F> *> &batch_;
    const TwiddleSlabs<F> &slabs_;
    const unsigned logN_;
    const NttDirection dir_;
    const unsigned lanes_;
    const FieldKernels<F> &fk_;
    uint64_t kernelDispatches_ = 0;
    const unsigned maxRadixLog2_;
};

// ---------------------------------------------------------------------
// Resilient executor: the fault machinery as a step decorator.
// ---------------------------------------------------------------------

/**
 * Everything the resilient executor needs from the engine besides the
 * data itself: re-planning and re-compiling after a degradation, and
 * the per-engine spot-check seed sequence.
 */
struct ResilientHooks
{
    /** Plan for the (possibly shrunk) machine, via the plan cache. */
    std::function<NttPlan(unsigned logN, const MultiGpuSystem &sys)> replan;
    /** Compile a resume schedule for the current plan/machine. */
    std::function<std::shared_ptr<const StageSchedule>(
        const NttPlan &pl, const MultiGpuSystem &sys, NttDirection dir,
        unsigned resume_stage, unsigned orig_log_mg)>
        recompile;
    /** Derive the next spot-check seed from the configured base. */
    std::function<uint64_t(uint64_t base)> nextSpotSeed;
};

/**
 * The host buffers a resilient run writes before it reads them: the
 * spot-check input snapshot and the ABFT recovery snapshot. The engine
 * lends one set to run after run, so back-to-back transforms reuse
 * them instead of allocating ~2x the data per call (whose page-fault
 * cost then swings with the state of the allocator's heap).
 */
template <NttField F>
struct ResilientScratch
{
    std::vector<F> input;
    std::vector<std::vector<F>> abftSnap;
};

template <NttField F>
class ResilientStepExecutor
{
  public:
    ResilientStepExecutor(MultiGpuSystem sys, const PerfModel &perf,
                          const UniNttConfig &cfg, SimReport &report,
                          DistributedVector<F> &data,
                          const std::vector<F> &input,
                          FaultInjector &faults,
                          const ResilienceConfig &rc,
                          DeviceHealthTracker *health,
                          const TwiddleSlabs<F> &slabs, NttPlan pl,
                          unsigned logMg0, NttDirection dir,
                          unsigned lanes, ResilientHooks hooks,
                          FaultStats &fs, ResilientScratch<F> &scratch,
                          const FieldKernels<F> &fk = fieldKernels<F>())
        : sys_(std::move(sys)),
          perf_(perf),
          cfg_(cfg),
          report_(report),
          data_(data),
          input_(input),
          faults_(faults),
          rc_(rc),
          health_(health),
          slabs_(slabs),
          pl_(std::move(pl)),
          logMg0_(logMg0),
          dir_(dir),
          lanes_(lanes),
          fk_(fk),
          hooks_(std::move(hooks)),
          fs_(fs),
          abftSnap_(scratch.abftSnap)
    {
    }

    /**
     * Wave-driven dispatch over the schedule's DAG: nodes run
     * sequentially in wave order, with exchange chunks issued before
     * the wave's butterfly chunks — on an overlapped schedule the
     * *next* stage's buffer is on the link while the *previous*
     * stage's butterflies are still in flight, which is exactly the
     * mid-overlap window a device loss must be able to land in. One
     * fault draw per exchange step, at its first chunk, keeps the
     * injector sequence identical in both dispatch modes; on a loss
     * the in-flight butterfly chunks of earlier stages drain
     * deterministically before the reshard, so the recompiled resume
     * schedule replays from a whole-stage boundary.
     */
    StepAction
    onWave(const StageSchedule &sched, size_t w)
    {
        initDag(sched);
        std::vector<uint32_t> order(sched.waves[w]);
        std::stable_sort(
            order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
                const bool ea = sched.steps[sched.dag[a].step].kind ==
                                StepKind::Exchange;
                const bool eb = sched.steps[sched.dag[b].step].kind ==
                                StepKind::Exchange;
                return ea && !eb;
            });
        for (uint32_t ni : order) {
            if (nodeDone_[ni])
                continue;
            StepAction act = runNode(sched, ni);
            if (!act.status.ok() || act.reschedule)
                return act;
        }
        return StepAction{};
    }

    /** Recompile the remaining stages for the degraded machine. */
    std::shared_ptr<const StageSchedule>
    reschedule()
    {
        auto sched = hooks_.recompile(pl_, sys_, dir_, resumeStage_,
                                      logMg0_);
        report_.setPeakDeviceBytes(sched->peakDeviceBytes);
        // Fresh coefficient vectors and a fresh first-boundary init for
        // the resume schedule; the injection ordinal keeps counting, so
        // replayed steps never repeat an earlier fault draw.
        attachSchedule(sched);
        return sched;
    }

    /**
     * Bind the schedule whose checked steps the ABFT layer verifies
     * (the engine calls this before dispatch; reschedule() re-binds the
     * resume schedule). Coefficient vectors are fetched lazily at the
     * first checked step, so ABFT-off runs never touch the cache.
     */
    void
    attachSchedule(std::shared_ptr<const StageSchedule> sched)
    {
        abftSched_ = std::move(sched);
        abftCoef_.reset();
        abftBoundary_ = 0;
        abftInited_ = false;
    }

    /** Resilience counters observed so far. */
    const FaultStats &faultStats() const { return fs_; }

    /** Span-kernel dispatches through the bound table (router stats). */
    uint64_t kernelDispatches() const { return kernelDispatches_; }

    /** The kernel table this executor runs on. */
    const FieldKernels<F> &kernels() const { return fk_; }

  private:
    /** What the fault machinery decided about one exchange step. */
    struct ExchangeResolution
    {
        Status status;
        /** >= 0: a device died; the caller drains, degrades, replans. */
        int lostGpu = -1;
        double commT = 0.0;
        CommStats comm;
    };

    /**
     * The fault machinery of one exchange step: the injector draw,
     * straggler watchdog, bounded-backoff transient retries, and the
     * checksum/retransmission loop, run at the step's first node —
     * the same point in both dispatch modes, so counters, health
     * records, and priced retry time cannot drift between them.
     */
    ExchangeResolution
    resolveExchange(const ScheduleStep &st)
    {
        ExchangeResolution res;
        const unsigned s = st.sBegin;
        ExchangeOutcome out = faults_.nextExchange(rc_.retry.maxRetries);
        fs_.exchanges++;
        if (out.lostGpu >= 0) {
            res.lostGpu = out.lostGpu;
            return res;
        }
        if (out.exhausted) {
            res.status = Status::error(
                StatusCode::TransientFault,
                detail::format("cross-GPU exchange at stage %u "
                               "still failing after %u retries",
                               s, rc_.retry.maxRetries));
            return res;
        }

        const uint64_t C = pl_.chunkElems();
        const uint64_t bytes = C * sizeof(F);
        // The step's counters already include the checksum generation
        // and verification adds (compiled with resilient=true).
        fs_.checksummedBytes += 2 * bytes;

        const unsigned distance = st.distance;
        const Interconnect &fabric =
            st.crossesNodes ? sys_.nodeFabric : sys_.fabric;
        const double once =
            fabric.pairwiseExchangeTime(bytes, st.effectiveDistance);
        CommStats comm{bytes, 1};
        // Faults at this stage are attributed to gpu 0's exchange
        // partner — the same device whose chunk demonstrates the
        // corruption below. An approximation (every pair faults
        // identically in the simulation), but a deterministic one,
        // so the health tracker sees a reproducible history.
        const unsigned suspect = distance;
        double comm_t = once * out.stragglerFactor;
        if (out.stragglerFactor > 1.0) {
            fs_.stragglerEvents++;
            if (health_ != nullptr && suspect < health_->numDevices())
                health_->recordFault(suspect);
            if (rc_.watchdogDeadlineFactor > 0.0 &&
                out.stragglerFactor > rc_.watchdogDeadlineFactor) {
                // Watchdog: the exchange is aborted at the deadline
                // and retried once on a clean link, bounding an
                // arbitrarily slow straggler at deadline + one
                // retransmission.
                comm_t = once * rc_.watchdogDeadlineFactor + once;
                comm.retries += 1;
                fs_.watchdogTimeouts++;
            }
        }
        for (unsigned i = 0; i < out.transientFailures; ++i)
            comm_t += rc_.retry.backoffSeconds(i) + once;
        comm.retries += out.transientFailures;
        fs_.transientRetries += out.transientFailures;
        if (health_ != nullptr && out.transientFailures > 0 &&
            suspect < health_->numDevices())
            health_->recordFault(suspect);

        // Corrupted payload: the checksum catches the flip (shown
        // functionally on the first exchanging pair), forcing
        // retransmissions until a clean copy lands.
        bool corrupted = out.corrupted;
        unsigned tries = 0;
        while (corrupted) {
            const std::vector<F> &payload = data_.chunk(distance);
            const uint64_t good = checksumBytes(payload.data(), bytes);
            std::vector<F> received = payload;
            auto *raw =
                reinterpret_cast<unsigned char *>(received.data());
            const uint64_t bit = out.corruptBit % (bytes * 8);
            raw[bit / 8] ^=
                static_cast<unsigned char>(1u << (bit % 8));
            const uint64_t seen = checksumBytes(received.data(), bytes);
            UNINTT_ASSERT(
                seen != good,
                "single-bit corruption must change the checksum");
            fs_.corruptionsDetected++;
            if (health_ != nullptr && suspect < health_->numDevices())
                health_->recordFault(suspect);
            comm_t += once;
            comm.retries += 1;
            if (++tries > rc_.retry.maxRetries) {
                res.status = Status::error(
                    StatusCode::DataCorruption,
                    detail::format(
                        "payload checksum mismatch at stage %u "
                        "persisted across %u retransmissions",
                        s, rc_.retry.maxRetries));
                return res;
            }
            corrupted = faults_.retransmitCorrupted();
        }
        res.commT = comm_t;
        res.comm = comm;
        return res;
    }

    /** Reset the wave-dispatch state on a schedule swap. */
    void
    initDag(const StageSchedule &sched)
    {
        if (dagSched_ == &sched)
            return;
        dagSched_ = &sched;
        nodeDone_.assign(sched.dag.size(), false);
        nodesLeft_.assign(sched.steps.size(), 0);
        for (const ScheduleDagNode &nd : sched.dag)
            nodesLeft_[nd.step]++;
        stepCommT_.assign(sched.steps.size(), 0.0);
        stepComm_.assign(sched.steps.size(), CommStats{});
    }

    /** Execute one DAG node. */
    StepAction
    runNode(const StageSchedule &sched, uint32_t ni)
    {
        const ScheduleDagNode &nd = sched.dag[ni];
        const ScheduleStep &st = sched.steps[nd.step];
        switch (st.kind) {
          case StepKind::Exchange: {
            // The exchange moves no host data (the butterflies read
            // the partner chunk in place); it carries the fault
            // machinery. One draw per exchange *step*, at its first
            // chunk: the injector sequence is the same whether or not
            // the step is split.
            if (nd.chunk != 0)
                break;
            ExchangeResolution res = resolveExchange(st);
            if (res.lostGpu >= 0) {
                StepAction drained = drainBefore(sched, nd.step);
                if (!drained.status.ok() || drained.reschedule)
                    return drained;
                Status dst = degrade(res.lostGpu, st.sBegin);
                if (!dst.ok())
                    return StepAction{dst, false};
                return StepAction{Status(), /*reschedule=*/true};
            }
            if (!res.status.ok())
                return StepAction{res.status, false};
            stepCommT_[nd.step] = res.commT;
            stepComm_[nd.step] = res.comm;
            break;
          }
          case StepKind::CrossStage:
            // The first butterfly node of a checked cross stage (chunk
            // 0: chunk k depends on chunk k-1) sees the data exactly at
            // the step boundary (its dependencies have completed, later
            // steps depend on it), so the ABFT arm — and the recovery
            // snapshot, when injection is live — happens here rather
            // than per node.
            if (nd.chunk == 0)
                abftArmStep(st);
            crossStageCompute(data_, st.sBegin, pl_.logN, slabs_, dir_,
                              lanes_, nd.sliceBegin, nd.sliceEnd, fk_);
            kernelDispatches_++;
            break;
          case StepKind::LocalPass:
          case StepKind::FusedLocalPass:
          case StepKind::Scale: {
            // Unsplit compute steps: one node, one phase, one
            // watchdog unit, guarded like any other step.
            abftArmStep(st);
            if (st.kind == StepKind::LocalPass) {
                localStagesCompute(data_, st.sBegin, st.sEnd, pl_.logN,
                                   slabs_, dir_, lanes_, fk_);
                kernelDispatches_++;
            } else if (st.kind == StepKind::FusedLocalPass) {
                fusedLocalStagesCompute(data_, st.sBegin, st.sEnd,
                                        pl_.logN, st.tileLog2, slabs_,
                                        dir_, lanes_, fk_,
                                        cfg_.fusedRadixLog2);
                kernelDispatches_++;
            } else if (st.applyInverseScale) {
                std::vector<DistributedVector<F> *> batch{&data_};
                inverseScaleCompute(batch, 1ULL << pl_.logN, lanes_,
                                    fk_);
                kernelDispatches_++;
            }
            StepAction guard = abftGuardStep(st);
            if (!guard.status.ok() || guard.reschedule)
                return guard;
            report_.addKernelPhase(st.name, st.stats, perf_);
            tagPhase(st);
            break;
          }
          case StepKind::SpotCheck: {
            StepAction act = spotCheckStep(st);
            if (!act.status.ok())
                return act;
            break;
          }
          case StepKind::BitRevGather:
            panic("resilient schedules do not reorder output");
        }
        nodeDone_[ni] = true;
        UNINTT_ASSERT(nodesLeft_[nd.step] > 0, "DAG node ran twice");
        if (--nodesLeft_[nd.step] == 0 &&
            st.kind == StepKind::CrossStage)
            return finishCross(sched, nd.step);
        return StepAction{};
    }

    /**
     * Drain every not-yet-run node of steps before @p step_limit —
     * the butterfly chunks still in flight on the surviving devices
     * when a loss lands mid-overlap. DAG index order is wave order
     * within a step, so the drain is deterministic; exchanges of
     * earlier steps are always already resolved (their first chunk
     * ran in an earlier wave), so no nested fault draw can occur.
     */
    StepAction
    drainBefore(const StageSchedule &sched, uint32_t step_limit)
    {
        for (uint32_t ni = 0;
             ni < static_cast<uint32_t>(sched.dag.size()); ++ni) {
            const ScheduleDagNode &nd = sched.dag[ni];
            if (nodeDone_[ni] || nd.step >= step_limit)
                continue;
            UNINTT_ASSERT(
                sched.steps[nd.step].kind != StepKind::Exchange,
                "exchange of an earlier stage still unresolved");
            StepAction act = runNode(sched, ni);
            if (!act.status.ok() || act.reschedule)
                return act;
        }
        return StepAction{};
    }

    /**
     * Inject/verify and emit the phases of a completed cross stage.
     * The ABFT guard sits between the last butterfly node and the
     * phase emission; the next stage's butterflies read the data in
     * place after it, so an injected flip (or its recovery) reaches
     * them exactly as it would in the linear dispatch. Under
     * overlapComm the comm phase hides time behind this stage's whole
     * kernel (priced per step, not per wave as the analytic executor
     * does).
     */
    StepAction
    finishCross(const StageSchedule &sched, uint32_t sidx)
    {
        const ScheduleStep &st = sched.steps[sidx];
        StepAction guard = abftGuardStep(st);
        if (!guard.status.ok() || guard.reschedule)
            return guard;
        const double kernel_t = perf_.kernelSeconds(st.stats);
        report_.addKernelPhase(st.name, st.stats, perf_);
        tagPhase(st);
        UNINTT_ASSERT(sidx > 0 && sched.steps[sidx - 1].kind ==
                                      StepKind::Exchange,
                      "cross stage without a preceding exchange");
        const ScheduleStep &ex = sched.steps[sidx - 1];
        const double comm_t = stepCommT_[sidx - 1];
        const CommStats &comm = stepComm_[sidx - 1];
        if (cfg_.overlapComm) {
            const double visible = std::max(0.0, comm_t - kernel_t);
            report_.addCommPhase(ex.name, visible, comm,
                                 comm_t - visible);
        } else {
            report_.addCommPhase(ex.name, comm_t, comm);
        }
        tagPhase(ex);
        return StepAction{};
    }

    /**
     * Permanent device loss: re-shard the data onto the surviving
     * power-of-two subset, re-plan, and price the recovery — the
     * detection timeout, pulling the lost chunk's replica from its
     * last exchange partner, and the all-to-all reshard. The caller
     * then requests a reschedule from stage @p s.
     */
    Status
    degrade(int lost_gpu, unsigned s)
    {
        // The loss is attributed whether or not the recovery below is
        // allowed to absorb it — the next run must know either way.
        if (health_ != nullptr && lost_gpu >= 0 &&
            static_cast<unsigned>(lost_gpu) < health_->numDevices())
            health_->recordDeviceLost(static_cast<unsigned>(lost_gpu));
        if (!rc_.allowDegraded)
            return Status::error(
                StatusCode::DeviceLost,
                detail::format(
                    "GPU %d lost and degraded mode is disabled",
                    lost_gpu));
        if (sys_.numGpus <= 1)
            return Status::error(
                StatusCode::DeviceLost,
                "GPU lost with no surviving devices to re-plan onto");
        const uint64_t n = 1ULL << pl_.logN;
        const unsigned newG = sys_.numGpus / 2;
        const uint64_t lost_chunk_bytes = pl_.chunkElems() * sizeof(F);
        const uint64_t reshard_bytes = (n / newG) * sizeof(F);
        double t = rc_.detectionSeconds;
        t += sys_.fabric.pairwiseExchangeTime(lost_chunk_bytes, 1);
        t += sys_.fabric.allToAllTime(reshard_bytes, newG);
        CommStats comm;
        comm.bytesPerGpu = reshard_bytes + lost_chunk_bytes;
        comm.messages = newG;
        report_.addCommPhase(
            "degrade-to-" + std::to_string(newG) + "gpu-reshard", t,
            comm);
        Status reshard_st = data_.reshardChecked(newG);
        if (!reshard_st.ok())
            return reshard_st;
        sys_.numGpus = newG;
        if (sys_.gpusPerNode != 0 && sys_.numGpus <= sys_.gpusPerNode)
            sys_.gpusPerNode = 0; // survivors fit inside one node
        pl_ = hooks_.replan(pl_.logN, sys_);
        fs_.devicesLost++;
        fs_.degradedReplans++;
        resumeStage_ = s;
        return Status();
    }

    /**
     * Post-transform spot check against a direct evaluation
     * (unintt/verify.hh): the backstop that catches whatever the
     * exchange checksums cannot see. It reads the shards in place: the
     * forward check finds output position bitReverse(k) as a (chunk,
     * offset) pair, the inverse check evaluates chunk g's coefficients
     * as x^(g*C) * P_g(x).
     */
    StepAction
    spotCheckStep(const ScheduleStep &st)
    {
        report_.addKernelPhase(st.name, st.stats, perf_);
        tagPhase(st);
        fs_.spotChecks += rc_.spotChecks;
        // Derived seed: repeated checks of the same transform sample
        // fresh positions (the config seed alone would re-sample the
        // same ones every run). Drawn only when the check actually
        // executes, so earlier-failing runs do not advance the
        // engine's seed sequence.
        const uint64_t spot_seed = hooks_.nextSpotSeed(rc_.spotCheckSeed);
        SpanList<F> shards;
        for (unsigned g = 0; g < data_.numGpus(); ++g)
            shards.emplace_back(data_.chunk(g));
        const SpanList<F> input{input_};
        const bool forward = dir_ == NttDirection::Forward;
        const bool good =
            spotCheck(forward ? input : shards, forward ? shards : input,
                      F::one(), rc_.spotChecks, spot_seed, fk_, lanes_);
        if (!good) {
            fs_.spotCheckFailures++;
            report_.addFaultStats(fs_);
            return StepAction{
                Status::error(
                    StatusCode::DataCorruption,
                    "post-transform spot check failed: output does not "
                    "match a direct evaluation of the input"),
                false};
        }
        return StepAction{};
    }

    // -----------------------------------------------------------------
    // ABFT compute-path integrity (unintt/abft.hh): deterministic
    // fault injection into kernel outputs, RLC checksum comparison
    // after every compute step, tile-granular recomputation on a
    // mismatch, and the degrade/fail escalation ladder.
    // -----------------------------------------------------------------

    /** True iff the ABFT comparison runs after checked steps. */
    bool
    abftCheckOn(const ScheduleStep &st) const
    {
        return rc_.abft && abftChecked(st) && abftSched_ != nullptr;
    }

    /** True iff compute-fault injection is live for this run. */
    bool
    abftInjectOn() const
    {
        return faults_.model().computeBitFlipRate > 0.0;
    }

    /**
     * Arm the ABFT machinery before a checked step's kernel runs:
     * fetch the coefficient vectors (lazily, via the process cache),
     * seed the first boundary's checksums from the current data, and —
     * only when injection is live, so clean runs pay nothing beyond
     * the comparison — snapshot the shards as the recovery restore
     * source.
     */
    void
    abftArmStep(const ScheduleStep &st)
    {
        if (!abftCheckOn(st))
            return;
        if (!abftCoef_) {
            // Derived like the spot-check seeds (mix64 over the
            // configured base, util/checksum.hh) but *not* advanced
            // per transform: the vectors depend only on the schedule
            // shape, which is what makes them cacheable.
            const uint64_t seed =
                mix64(rc_.spotCheckSeed ^ 0xabf7c0effec0ffeeULL);
            abftCoef_ = cachedAbftCoefficients<F>(*abftSched_, slabs_,
                                                  seed, lanes_);
        }
        if (!abftInited_) {
            abftPrev_ = abftChunkChecksums(abftCoef_->boundary(0),
                                           data_, lanes_);
            abftInited_ = true;
        }
        if (abftInjectOn()) {
            const unsigned G = data_.numGpus();
            abftSnap_.resize(G);
            hostParallelFor(G, data_.chunkSize(), lanes_,
                            [&](size_t g) {
                                abftSnap_[g] = data_.chunk(
                                    static_cast<unsigned>(g));
                            });
        }
    }

    /**
     * The compute-integrity decorator of one finished compute step:
     * one deterministic fault draw against the step's output, then the
     * ABFT comparison with tile recovery. Runs between the kernel and
     * its phase emission in both dispatch modes; the step ordinal
     * advances identically in both, so the draw sequences (and
     * therefore the injected faults) cannot drift between them, and it
     * is never reset on a reschedule, so resumed steps draw fresh.
     */
    StepAction
    abftGuardStep(const ScheduleStep &st)
    {
        const bool inject = abftInjectOn();
        const bool check = abftCheckOn(st);
        if (!inject && !check)
            return StepAction{};
        const uint64_t ord = stepOrdinal_++;
        if (inject) {
            const unsigned g_t =
                static_cast<unsigned>(ord % data_.numGpus());
            ComputeFaultOutcome out =
                faults_.computeFault(g_t, ord, 0);
            if (out.corrupted)
                abftCorrupt(g_t, 0, data_.chunkSize(), out);
        }
        if (!check)
            return StepAction{}; // ABFT off: corruption flows silently
        return abftVerifyStep(st, ord);
    }

    /** Flip one bit of one word of shard @p g inside [w0, w0+len). */
    void
    abftCorrupt(unsigned g, uint64_t w0, uint64_t len,
                const ComputeFaultOutcome &out)
    {
        auto &chunk = data_.chunk(g);
        const uint64_t word = w0 + out.corruptWord % len;
        auto *raw = reinterpret_cast<unsigned char *>(chunk.data() +
                                                      word);
        const uint64_t bit = out.corruptBit % (8 * sizeof(F));
        raw[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }

    /**
     * Post-step ABFT comparison and bounded tile-granular recovery.
     * Chunk-local steps must preserve every shard's checksum; a cross
     * stage mixes exactly its exchanging pair, preserving the pairwise
     * sum. Each recovery round counts one catch, restores and
     * recomputes only the corrupted tiles, and re-draws the injector
     * for the redone slice (attempt > 0); when the budget is spent the
     * step escalates.
     */
    StepAction
    abftVerifyStep(const ScheduleStep &st, uint64_t ord)
    {
        const unsigned G = data_.numGpus();
        const uint64_t C = data_.chunkSize();
        const std::vector<F> &prev_coef =
            abftCoef_->boundary(abftBoundary_);
        const std::vector<F> &cur_coef =
            abftCoef_->boundary(abftBoundary_ + 1);
        const bool cross = st.kind == StepKind::CrossStage;
        const unsigned gap = st.distance;

        unsigned attempt = 0;
        for (;;) {
            std::vector<F> actual =
                abftChunkChecksums(cur_coef, data_, lanes_);
            fs_.abftChecks++;
            std::vector<unsigned> bad; // suspect shards (pair lows)
            if (cross) {
                for (unsigned pi = 0; pi < G / 2; ++pi) {
                    const unsigned g_lo = pairLowGpu(pi, gap);
                    const F want =
                        abftPrev_[g_lo] + abftPrev_[g_lo + gap];
                    if (!(actual[g_lo] + actual[g_lo + gap] == want))
                        bad.push_back(g_lo);
                }
            } else {
                for (unsigned g = 0; g < G; ++g)
                    if (!(actual[g] == abftPrev_[g]))
                        bad.push_back(g);
            }
            if (bad.empty()) {
                abftPrev_ = std::move(actual);
                abftBoundary_++;
                return StepAction{};
            }
            // A mismatch without a live injector has no pre-step
            // snapshot to recover from (clean runs skip it to stay
            // overhead-honest): surface the corruption as-is.
            if (!abftInjectOn() || abftSnap_.size() != G)
                return StepAction{
                    Status::error(
                        StatusCode::DataCorruption,
                        detail::format("ABFT checksum mismatch at %s "
                                       "with no recovery snapshot",
                                       st.name.c_str())),
                    false};
            if (attempt >= rc_.abftMaxTileRetries)
                return abftEscalate(st, bad.front());

            fs_.abftCatches++;
            if (health_ != nullptr &&
                bad.front() < health_->numDevices())
                health_->recordFault(bad.front());
            uint64_t redo_w0 = 0;
            uint64_t redo_len = C;
            for (unsigned g : bad) {
                if (cross) {
                    abftRecomputeCrossPair(st, g);
                    fs_.tilesRecomputed++;
                    continue;
                }
                if (st.kind == StepKind::Scale) {
                    // Localization floor: the scaling pass has no
                    // sub-chunk structure worth bisecting — the tile
                    // is the shard.
                    data_.chunk(g) = abftSnap_[g];
                    if (st.applyInverseScale) {
                        const F sc =
                            inverseScale<F>(1ULL << pl_.logN);
                        for (F &v : data_.chunk(g))
                            v *= sc;
                    }
                    fs_.tilesRecomputed++;
                    continue;
                }
                // Local passes: bisect to the stage-coupled
                // super-block via per-tile partial checksums of the
                // snapshot (previous boundary) against the current
                // data (next boundary) — the step is block-diagonal
                // over these tiles, so the transition holds per tile.
                const uint64_t SB =
                    (1ULL << pl_.logN) >> st.sBegin;
                for (uint64_t o = 0; o < C; o += SB) {
                    const F want = abftSpanDot(
                        prev_coef.data() +
                            static_cast<uint64_t>(g) * C + o,
                        abftSnap_[g].data() + o, SB);
                    const F got = abftSpanDot(
                        cur_coef.data() +
                            static_cast<uint64_t>(g) * C + o,
                        data_.chunk(g).data() + o, SB);
                    if (got == want)
                        continue;
                    std::copy(abftSnap_[g].begin() + o,
                              abftSnap_[g].begin() + o + SB,
                              data_.chunk(g).begin() + o);
                    abftRecomputeLocalSpan(
                        data_.chunk(g).data() + o, SB, st);
                    fs_.tilesRecomputed++;
                    redo_w0 = o;
                    redo_len = SB;
                }
            }
            ++attempt;
            // The redone tile is itself kernel output: one fresh
            // deterministic draw per (step, attempt) may corrupt it
            // again, exercising the bounded-retry ladder.
            ComputeFaultOutcome out =
                faults_.computeFault(bad.front(), ord, attempt);
            if (out.corrupted)
                abftCorrupt(bad.front(), redo_w0, redo_len, out);
        }
    }

    /** Redo one exchanging pair's butterflies from the snapshot. */
    void
    abftRecomputeCrossPair(const ScheduleStep &st, unsigned g_lo)
    {
        const unsigned gap = st.distance;
        const uint64_t C = data_.chunkSize();
        F *lo = data_.chunk(g_lo).data();
        F *hi = data_.chunk(g_lo + gap).data();
        // The span kernels run in place, so re-seed the pair from the
        // pre-step snapshot first; the butterflies themselves are the
        // same exact arithmetic the step originally ran.
        std::copy(abftSnap_[g_lo].begin(), abftSnap_[g_lo].end(), lo);
        std::copy(abftSnap_[g_lo + gap].begin(),
                  abftSnap_[g_lo + gap].end(), hi);
        const F *tws = slabs_.slab(st.sBegin);
        const uint64_t j0 = static_cast<uint64_t>(g_lo % gap) * C;
        if (dir_ == NttDirection::Forward)
            fk_.bflyFwd(lo, hi, tws + j0, 1, C);
        else
            fk_.bflyInv(lo, hi, tws + j0, 1, C);
    }

    /**
     * Redo local stages [sBegin, sEnd) over one restored tile span —
     * the same stage order and exact arithmetic as the full kernels,
     * so the recomputed tile is bit-identical to an uncorrupted run.
     */
    void
    abftRecomputeLocalSpan(F *buf, uint64_t span, const ScheduleStep &st)
    {
        if (st.kind == StepKind::FusedLocalPass) {
            fusedSpanStages(buf, span, st.sBegin, st.sEnd, slabs_,
                            dir_, fk_, cfg_.fusedRadixLog2);
            return;
        }
        const uint64_t n = 1ULL << pl_.logN;
        std::vector<unsigned> stages;
        for (unsigned s = st.sBegin; s < st.sEnd; ++s)
            stages.push_back(s);
        if (dir_ == NttDirection::Inverse)
            std::reverse(stages.begin(), stages.end());
        for (unsigned s : stages) {
            const uint64_t half = n >> (s + 1);
            const F *tws = slabs_.slab(s);
            for (uint64_t start = 0; start < span;
                 start += 2 * half) {
                F *p0 = buf + start;
                if (dir_ == NttDirection::Forward)
                    fk_.bflyFwd(p0, p0 + half, tws, 1, half);
                else
                    fk_.bflyInv(p0, p0 + half, tws, 1, half);
            }
        }
    }

    /**
     * Recovery budget spent: restore the whole pre-step state and walk
     * the escalation ladder. Cross stages and forward local passes
     * fall back to the degrade-reschedule path (the suspect shard's
     * device is retired, exactly like a permanent loss); everything
     * the resume compiler cannot re-enter — the inverse local phase
     * (resume schedules skip it by contract) and the scaling pass —
     * fails with a clean DataCorruption status, as does the last GPU.
     */
    StepAction
    abftEscalate(const ScheduleStep &st, unsigned suspect)
    {
        fs_.abftEscalations++;
        const unsigned G = data_.numGpus();
        for (unsigned g = 0; g < G; ++g)
            data_.chunk(g) = abftSnap_[g];
        const bool local = st.kind == StepKind::LocalPass ||
                           st.kind == StepKind::FusedLocalPass;
        const bool resumable =
            st.kind == StepKind::CrossStage ||
            (local && dir_ == NttDirection::Forward);
        if (!resumable || !rc_.allowDegraded || sys_.numGpus <= 1)
            return StepAction{
                Status::error(
                    StatusCode::DataCorruption,
                    detail::format(
                        "compute corruption at %s persisted across "
                        "%u tile recomputations",
                        st.name.c_str(), rc_.abftMaxTileRetries)),
                false};
        Status dst = degrade(static_cast<int>(suspect), st.sBegin);
        if (!dst.ok())
            return StepAction{dst, false};
        return StepAction{Status(), /*reschedule=*/true};
    }

    void
    tagPhase(const ScheduleStep &st)
    {
        report_.tagLastPhase(toString(st.kind), toString(st.level));
    }

    MultiGpuSystem sys_; // shrinks when devices drop out
    const PerfModel &perf_;
    const UniNttConfig &cfg_;
    SimReport &report_;
    DistributedVector<F> &data_;
    const std::vector<F> &input_;
    FaultInjector &faults_;
    const ResilienceConfig &rc_;
    DeviceHealthTracker *health_;
    const TwiddleSlabs<F> &slabs_;
    NttPlan pl_;
    const unsigned logMg0_;
    const NttDirection dir_;
    const unsigned lanes_;
    const FieldKernels<F> &fk_;
    ResilientHooks hooks_;
    /** The caller's counters (may already hold health exclusions). */
    FaultStats &fs_;
    unsigned resumeStage_ = 0;
    uint64_t kernelDispatches_ = 0;

    // Wave-dispatch state, reset on schedule swap.
    const StageSchedule *dagSched_ = nullptr;
    std::vector<bool> nodeDone_;
    /** Per step: nodes still to run; phases emit when it hits 0. */
    std::vector<uint32_t> nodesLeft_;
    /** Resolved comm time / stats stashed until the step completes. */
    std::vector<double> stepCommT_;
    std::vector<CommStats> stepComm_;

    // ABFT state (attachSchedule resets all but the ordinal).
    /** Schedule whose checked steps are verified (keeps coef alive). */
    std::shared_ptr<const StageSchedule> abftSched_;
    std::shared_ptr<const AbftCoefficients<F>> abftCoef_;
    /** Checked-step boundaries consumed so far. */
    size_t abftBoundary_ = 0;
    bool abftInited_ = false;
    /** Per-shard checksums of the data at the current boundary. */
    std::vector<F> abftPrev_;
    /** Pre-step shard snapshot (taken only while injection is live). */
    std::vector<std::vector<F>> &abftSnap_;
    /**
     * Injection clock: one tick per compute step with the guard
     * active, monotone across reschedules, identical in both dispatch
     * modes — the (device, step, attempt) triple of every draw is
     * unique for the run (sim/fault.hh seed-derivation contract).
     */
    uint64_t stepOrdinal_ = 0;
};

} // namespace unintt

#endif // UNINTT_UNINTT_EXECUTORS_HH
