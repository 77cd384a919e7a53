/**
 * @file
 * An Icicle-style optimized single-GPU NTT baseline: butterfly stages
 * grouped into shared-memory tile passes (radix-2^8 kernels), twiddles
 * loaded from precomputed device tables, conflict-free tile layout.
 * This is the state of the art for one GPU; what it lacks relative to
 * UniNTT's single-GPU configuration is the uniform warp-level shuffle
 * sub-NTT and on-the-fly twiddle generation, and it has no multi-GPU
 * story at all (Icicle distributes independent transforms, it does not
 * split one transform). The model is analytic: it counts each pass's
 * work and traffic and runs nothing on the host.
 */

#ifndef UNINTT_BASELINES_ICICLE_LIKE_HH
#define UNINTT_BASELINES_ICICLE_LIKE_HH

#include <string>

#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "sim/multi_gpu.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"
#include "util/logging.hh"

namespace unintt {

/** Optimized single-GPU NTT baseline (Icicle-class). */
template <NttField F>
class IcicleLikeNtt
{
  public:
    /** Bits one shared-memory tile pass resolves (radix-2^8 kernel). */
    static constexpr unsigned kLogTile = 8;

    explicit IcicleLikeNtt(GpuModel gpu)
        : perf_(std::move(gpu), fieldCostOf<F>())
    {
    }

    /** Simulated timeline without functional execution. */
    SimReport
    analyticRun(unsigned logN, NttDirection dir, size_t batch = 1) const
    {
        requireTwoAdicSize<F>(logN);
        const uint64_t n = 1ULL << logN;
        const size_t b = sizeof(F);
        SimReport report;

        unsigned remaining = logN;
        unsigned pass_idx = 0;
        while (remaining > 0) {
            unsigned bits = std::min(remaining, kLogTile);
            KernelStats k;
            k.butterflies = n / 2 * bits * batch;
            k.fieldMuls = k.butterflies;
            k.fieldAdds = 2 * k.butterflies;
            // Table twiddles: loads partially served by L2.
            k.globalReadBytes += k.butterflies * b / 2;
            // One coalesced read + write of the array per pass.
            k.globalReadBytes += n * b * batch;
            k.globalWriteBytes += n * b * batch;
            // All tile stages exchange through (conflict-free) smem.
            k.smemBytes = 2 * n * b * bits * batch;
            k.syncs = (n >> bits) * bits * batch;
            k.kernelLaunches = 1;
            report.addKernelPhase("tile-pass-" + std::to_string(pass_idx),
                                  k, perf_);
            remaining -= bits;
            ++pass_idx;
        }
        if (dir == NttDirection::Inverse) {
            KernelStats k;
            k.fieldMuls = n * batch;
            k.globalReadBytes = n * b * batch;
            k.globalWriteBytes = n * b * batch;
            k.kernelLaunches = 1;
            report.addKernelPhase("inverse-scale", k, perf_);
        }
        return report;
    }

  private:
    PerfModel perf_;
};

} // namespace unintt

#endif // UNINTT_BASELINES_ICICLE_LIKE_HH
