/**
 * @file
 * The conventional multi-GPU NTT baseline: the four-step (Bailey)
 * algorithm with data distributed across GPUs and the two transposes
 * realized as all-to-all exchanges. This is the algorithm prior
 * multi-GPU attempts use (it is also how distributed FFT libraries
 * work), and its all-to-all communication is exactly the overhead the
 * UniNTT abstract calls out.
 *
 * Structure for N = N1 * N2 on G GPUs (rows distributed):
 *   1. all-to-all transpose      (columns become local)
 *   2. local size-N1 NTTs        (Icicle-class tile passes)
 *   3. twiddle multiplication    (explicit pass, not fusable here)
 *   4. all-to-all transpose back
 *   5. local size-N2 NTTs
 * Output is in natural order.
 */

#ifndef UNINTT_BASELINES_FOURSTEP_MULTIGPU_HH
#define UNINTT_BASELINES_FOURSTEP_MULTIGPU_HH

#include <string>

#include "field/field_traits.hh"
#include "ntt/fourstep.hh"
#include "ntt/ntt.hh"
#include "sim/multi_gpu.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"
#include "unintt/distributed.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace unintt {

/**
 * Implementation-quality knobs of the four-step baseline. The default
 * ("tuned") gives the strongest defensible baseline: transposes staged
 * through shared-memory tiles (coalesced global access) and local NTTs
 * in grouped Icicle-class passes. The "prior-art" variant reflects the
 * straightforward ports that predate dedicated multi-GPU NTT work:
 * strided (uncoalesced) transpose packing and one kernel per butterfly
 * stage.
 */
struct FourStepOptions
{
    /** Tile the transpose pack/unpack through shared memory. */
    bool tiledTranspose = true;
    /** Group local butterfly stages into shared-memory tile passes. */
    bool groupedLocalPasses = true;

    /** The strongest baseline configuration. */
    static FourStepOptions tuned() { return FourStepOptions{}; }

    /** The straightforward-port configuration. */
    static FourStepOptions
    priorArt()
    {
        return FourStepOptions{false, false};
    }
};

/** Distributed four-step NTT with all-to-all transposes. */
template <NttField F>
class FourStepMultiGpuNtt
{
  public:
    /** Bits per local shared-memory tile pass (as IcicleLikeNtt). */
    static constexpr unsigned kLogTile = 8;

    explicit FourStepMultiGpuNtt(MultiGpuSystem sys,
                                 FourStepOptions opts =
                                     FourStepOptions::tuned())
        : sys_(std::move(sys)), opts_(opts),
          perf_(sys_.gpu, fieldCostOf<F>())
    {
        UNINTT_ASSERT(isPow2(sys_.numGpus), "GPU count must be 2^k");
    }

    /**
     * Forward NTT, natural in, natural out (the four-step transpose
     * sequence restores natural order; note this differs from
     * UniNTT's bit-reversed output convention).
     */
    SimReport
    forward(DistributedVector<F> &data) const
    {
        unsigned logN = log2Exact(data.size());
        SimReport report = analyticRun(logN, NttDirection::Forward);
        runFunctional(data, NttDirection::Forward);
        return report;
    }

    /** Inverse NTT, natural in, natural out, scaled. */
    SimReport
    inverse(DistributedVector<F> &data) const
    {
        unsigned logN = log2Exact(data.size());
        SimReport report = analyticRun(logN, NttDirection::Inverse);
        runFunctional(data, NttDirection::Inverse);
        return report;
    }

    /** Simulated timeline without functional execution. */
    SimReport
    analyticRun(unsigned logN, NttDirection dir, size_t batch = 1) const
    {
        requireTwoAdicSize<F>(logN);
        const uint64_t n = 1ULL << logN;
        const unsigned G = sys_.numGpus;
        const uint64_t chunk = n / G;
        const size_t b = sizeof(F);
        const unsigned log_n1 = logN / 2;
        const unsigned log_n2 = logN - log_n1;
        SimReport report;

        // Footprint: data, the all-to-all receive buffer, the pack
        // staging buffer, and the twiddle table (four-step always uses
        // tables).
        report.setPeakDeviceBytes(deviceFootprintBytes(
            sys_.gpu, {{"data", chunk * b * batch},
                       {"alltoall-recv", chunk * b * batch},
                       {"pack-staging", chunk * b * batch},
                       {"twiddle-table", n / 2 * b}}));

        auto add_transpose = [&](const std::string &name) {
            if (G == 1) {
                // Still a full on-device transpose pass.
                KernelStats k = transposeKernelStats(chunk, batch);
                report.addKernelPhase(name + "-local", k, perf_);
                return;
            }
            // Pack/unpack kernels around the wire exchange.
            KernelStats k = transposeKernelStats(chunk, batch);
            report.addKernelPhase(name + "-pack", k, perf_);
            uint64_t wire = chunk * b * batch * (G - 1) / G;
            CommStats comm{wire, G - 1};
            double t = sys_.fabric.allToAllTime(wire, G);
            report.addCommPhase(name + "-alltoall", t, comm);
        };

        auto add_local_ntt = [&](unsigned bits, const std::string &name) {
            unsigned remaining = bits;
            unsigned idx = 0;
            const unsigned group = opts_.groupedLocalPasses ? kLogTile : 1;
            while (remaining > 0) {
                unsigned pass_bits = std::min(remaining, group);
                KernelStats k;
                k.butterflies = chunk / 2 * pass_bits * batch;
                k.fieldMuls = k.butterflies;
                k.fieldAdds = 2 * k.butterflies;
                k.globalReadBytes = chunk * b * batch;
                k.globalWriteBytes = chunk * b * batch;
                if (opts_.groupedLocalPasses) {
                    // Tile passes: twiddles partially cached, stages
                    // exchanged through shared memory.
                    k.globalReadBytes += k.butterflies * b / 2;
                    k.smemBytes = 2 * chunk * b * pass_bits * batch;
                    k.syncs = (chunk >> pass_bits) * pass_bits * batch;
                } else {
                    // Stage-per-kernel: every twiddle load from DRAM.
                    k.globalReadBytes += k.butterflies * b;
                }
                k.kernelLaunches = 1;
                report.addKernelPhase(
                    name + "-pass-" + std::to_string(idx), k, perf_);
                remaining -= pass_bits;
                ++idx;
            }
        };

        add_transpose("transpose-1");
        add_local_ntt(log_n1, "col-ntt");

        // Explicit inter-step twiddle pass (four-step cannot fuse it:
        // the factors depend on both matrix coordinates).
        {
            KernelStats k;
            k.fieldMuls = chunk * batch;
            k.globalReadBytes = chunk * b * batch;
            k.globalWriteBytes = chunk * b * batch;
            k.kernelLaunches = 1;
            report.addKernelPhase("twiddle-mult", k, perf_);
        }

        add_transpose("transpose-2");
        add_local_ntt(log_n2, "row-ntt");

        if (dir == NttDirection::Inverse) {
            KernelStats k;
            k.fieldMuls = chunk * batch;
            k.globalReadBytes = chunk * b * batch;
            k.globalWriteBytes = chunk * b * batch;
            k.kernelLaunches = 1;
            report.addKernelPhase("inverse-scale", k, perf_);
        }
        return report;
    }

    /** The machine being modeled. */
    const MultiGpuSystem &system() const { return sys_; }

  private:
    /**
     * Transpose pack/unpack kernel. Tiled: coalesced global traffic
     * plus an smem round trip. Untiled: the strided side of the
     * transpose touches one DRAM sector per element.
     */
    KernelStats
    transposeKernelStats(uint64_t chunk, size_t batch) const
    {
        const size_t b = sizeof(F);
        KernelStats k;
        if (opts_.tiledTranspose) {
            k.globalReadBytes = chunk * b * batch;
            k.globalWriteBytes = chunk * b * batch;
            k.smemBytes = 2 * chunk * b * batch;
            k.syncs = chunk / 1024 * batch;
        } else {
            uint64_t amplification =
                std::max<uint64_t>(1, sys_.gpu.dramSectorBytes / b);
            k.globalReadBytes = chunk * b * batch * amplification;
            k.globalWriteBytes = chunk * b * batch;
        }
        k.kernelLaunches = 1;
        return k;
    }

    /** Bit-exact execution via the reference four-step transform. */
    void
    runFunctional(DistributedVector<F> &data, NttDirection dir) const
    {
        auto global = data.toGlobal();
        size_t n1 = 1ULL << (log2Exact(global.size()) / 2);
        auto out = fourStepNtt(global, n1, dir);
        auto redistributed =
            DistributedVector<F>::fromGlobal(out, sys_.numGpus);
        for (unsigned g = 0; g < sys_.numGpus; ++g)
            data.chunk(g) = redistributed.chunk(g);
    }

    MultiGpuSystem sys_;
    FourStepOptions opts_;
    PerfModel perf_;
};

} // namespace unintt

#endif // UNINTT_BASELINES_FOURSTEP_MULTIGPU_HH
