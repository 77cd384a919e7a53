/**
 * @file
 * The functional kernels of a schedule's compute steps: the bit-exact
 * host butterflies of a cross-GPU stage (crossStageCompute) and of
 * GPU-local stages one at a time (localStagesCompute) or tile-fused
 * (fusedLocalStagesCompute over the fusedStages walk). The local
 * kernels take a factor that multiplies every element they write: the
 * inverse's n^-1, which the first step of a full inverse schedule
 * carries (stepScale), so no pass of its own applies it. The
 * functional executor runs them on the data; the ABFT coefficient
 * builder (abft.hh) runs them in the opposite direction on its
 * coefficient vectors, because the transpose of a DIF butterfly is the
 * DIT butterfly with the same twiddle and the other way round, and a
 * scalar factor is its own transpose.
 */

#ifndef UNINTT_UNINTT_COMPUTE_HH
#define UNINTT_UNINTT_COMPUTE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "field/dispatch.hh"
#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "ntt/twiddle.hh"
#include "ntt/twiddle_cache.hh"
#include "unintt/distributed.hh"
#include "unintt/schedule.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace unintt {

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

    const uint64_t slices = laneSlices(lows.size(), span, lanes);

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

/** The factor @p st's kernel applies: n^-1 if it carries it, else 1. */
template <NttField F>
F
stepScale(const ScheduleStep &st, unsigned logN)
{
    return st.applyInverseScale ? inverseScale<F>(size_t{1} << logN)
                                : F::one();
}

/**
 * Functional butterflies of local stages [s_begin, s_end), times
 * @p scale, which rides in stage s_begin's units (they cover each
 * element once).
 */
template <NttField F>
void
localStagesCompute(DistributedVector<F> &data, unsigned s_begin,
                   unsigned s_end, unsigned logN,
                   const TwiddleSlabs<F> &slabs, NttDirection dir,
                   unsigned lanes,
                   const FieldKernels<F> &fk = fieldKernels<F>(),
                   F scale = F::one())
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
        const uint64_t jslices = laneSlices(units, half, lanes);

        const F *tws = slabs.slab(s); // tws[j] == full_table[j << s]
        const bool scaled = s == s_begin && !(scale == F::one());
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
                if (scaled) {
                    fk.scaleSpan(p0, scale, je - jb);
                    fk.scaleSpan(p0 + half, scale, je - jb);
                }
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
 * pair distance.
 *
 * Both directions walk the same passes, mirror images of each other:
 * radix-8 triples, plus what whole triples leave over (one radix-4
 * pair or one radix-2 stage) at the outer end, from s0. The forward
 * (DIF) runs its passes outer to inner, the inverse (DIT) inner to
 * outer, and each pass hands its slot (r8Fwd or r8Inv, r4Fwd or
 * r4Inv, bflyFwd or bflyInv) the slabs in the slot's stage order. A
 * pass couples rows q + rq + k*d, d the row distance of its innermost
 * stage, and reads every slab at offset rq * h1 + col0 with half-span
 * d * h1. A whole super-block (cols == row_stride == h1, so col0 == 0)
 * is contiguous, and each row group is one kernel call of d * h1
 * columns.
 *
 * A tail group (h1 == 1) of at least W = max(8, lanes) elements hands
 * its last log2(W) stages, halves W/2 down to 1, to one subLaneFwd
 * call (the inverse: its first log2(W) DIT stages, to subLaneInv). So
 * no radix call of a tail group spans less than W elements, and no
 * stage below the vector width reaches a kernel's scalar tail. Exact
 * field arithmetic on canonical representations makes every form
 * bit-identical to running the stages one at a time.
 * A @p scale other than one multiplies the slab after the last pass,
 * while it is in cache; a scalar commutes with every stage.
 */
template <NttField F>
void
fusedStages(F *buf, size_t row_stride, size_t cols, size_t col0,
            size_t h1, unsigned s0, unsigned s1,
            const TwiddleSlabs<F> &slabs, NttDirection dir,
            const FieldKernels<F> &fk = fieldKernels<F>(),
            F scale = F::one())
{
    const bool fwd = dir == NttDirection::Forward;
    const size_t rows = size_t{1} << (s1 - s0);
    const bool whole = cols == h1 && row_stride == h1;
    const size_t W = fk.subLaneWidth();
    const bool sub_lane = whole && h1 == 1 && rows >= W;
    // Upper stages [s0, su). The sub-lane slabs slab(su) .. slab(s1-1)
    // lie back to back, which is the slots' packed twiddle layout.
    const unsigned su = sub_lane ? s1 - log2Exact(W) : s1;

    // One pass over stages [lo, hi), radix 2^(hi - lo).
    auto pass = [&](unsigned lo, unsigned hi) {
        const size_t radix = size_t{1} << (hi - lo);
        const size_t d = size_t{1} << (s1 - hi);
        const size_t h = d * h1;
        const size_t rd = d * row_stride;
        const size_t calls = whole ? 1 : d;
        const size_t width = whole ? h : cols;
        const F *tw[3];
        for (unsigned k = 0; k < hi - lo; ++k)
            tw[k] = slabs.slab(fwd ? lo + k : hi - 1 - k);
        auto row_groups = [&](auto &&call) {
            for (size_t q = 0; q < rows; q += radix * d)
                for (size_t rq = 0; rq < calls; ++rq)
                    call(buf + (q + rq) * row_stride, rq * h1 + col0);
        };
        if (radix == 8) {
            const auto r8 = fwd ? fk.r8Fwd : fk.r8Inv;
            row_groups([&](F *r, size_t off) {
                r8(r, r + rd, r + 2 * rd, r + 3 * rd, r + 4 * rd,
                   r + 5 * rd, r + 6 * rd, r + 7 * rd, tw[0] + off,
                   tw[1] + off, tw[2] + off, h, width);
            });
        } else if (radix == 4) {
            const auto r4 = fwd ? fk.r4Fwd : fk.r4Inv;
            row_groups([&](F *r, size_t off) {
                r4(r, r + rd, r + 2 * rd, r + 3 * rd, tw[0] + off,
                   tw[1] + off, h, width);
            });
        } else {
            const auto r2 = fwd ? fk.bflyFwd : fk.bflyInv;
            row_groups([&](F *r, size_t off) {
                r2(r, r + rd, tw[0] + off, 1, width);
            });
        }
    };

    // Pass [hi - min(hi - s0, 3), hi): a triple, or the remainder at s0.
    auto lo_of = [&](unsigned hi) { return hi - std::min(hi - s0, 3u); };
    if (fwd) {
        const unsigned rem = (su - s0) % 3;
        for (unsigned hi = s0 + (rem != 0 ? rem : 3); hi <= su; hi += 3)
            pass(lo_of(hi), hi);
        if (sub_lane)
            fk.subLaneFwd(buf, slabs.slab(su), rows / W);
    } else {
        if (sub_lane)
            fk.subLaneInv(buf, slabs.slab(su), rows / W);
        for (unsigned hi = su; hi > s0; hi = lo_of(hi))
            pass(lo_of(hi), hi);
    }
    // A whole super-block is one contiguous call, a slab one per row.
    const size_t runs = whole ? 1 : rows;
    for (size_t r = 0; r < runs && !(scale == F::one()); ++r)
        fk.scaleSpan(buf + r * row_stride, scale, whole ? rows * h1 : cols);
}

/**
 * Tile-fused functional butterflies of local stages [s_begin, s_end):
 * one fork/join per *group* instead of per stage, with every stage of
 * the group running before the data leaves the unit. The schedule's
 * tail group is sized to the fused tile (SB == 2^tileLog2),
 * so its sweep is cache-resident end to end; head groups whose
 * super-block exceeds the tile stream the same fused sweep over the
 * block — one pass per stage *triple* where the per-stage path pays a
 * full pass per stage. When whole super-blocks are scarcer than lanes,
 * units split into column slices (columns of the super-block never
 * couple, so any column subset is independent). Work units write
 * disjoint element ranges, which keeps the output bit-identical to
 * localStagesCompute for every thread count, tile size, and slicing.
 * Every unit multiplies its elements by @p scale inside its walk.
 */
template <NttField F>
void
fusedLocalStagesCompute(DistributedVector<F> &data, unsigned s_begin,
                        unsigned s_end, unsigned logN,
                        const TwiddleSlabs<F> &slabs, NttDirection dir,
                        unsigned lanes,
                        const FieldKernels<F> &fk = fieldKernels<F>(),
                        F scale = F::one())
{
    const uint64_t n = 1ULL << logN;
    const unsigned G = data.numGpus();
    const uint64_t C = data.chunkSize();
    const unsigned t = s_end - s_begin;
    const uint64_t SB = n >> s_begin; // stage-coupled super-block
    const uint64_t h1 = n >> s_end;   // its column count
    UNINTT_ASSERT(SB <= C, "fused group is not GPU-local");
    const uint64_t sbs_per_gpu = C / SB;

    const uint64_t units = static_cast<uint64_t>(G) * sbs_per_gpu;
    const uint64_t csl = laneSlices(units, h1, lanes);
    hostParallelFor(
        units * csl, kernelCost(SB / 2 * t / csl, dir, fk.lanes),
        lanes, [&](size_t u) {
            const uint64_t unit = u / csl;
            const uint64_t slice = u % csl;
            const unsigned g =
                static_cast<unsigned>(unit / sbs_per_gpu);
            const uint64_t sb = unit % sbs_per_gpu;
            // Column slice [c0, c1); csl == 1 runs the whole block.
            const uint64_t c0 = h1 * slice / csl;
            const uint64_t c1 = h1 * (slice + 1) / csl;
            fusedStages(data.chunk(g).data() + sb * SB + c0, h1, c1 - c0,
                        c0, h1, s_begin, s_end, slabs, dir, fk, scale);
        });
}

} // namespace unintt

#endif // UNINTT_UNINTT_COMPUTE_HH
