/**
 * @file
 * The naive single-GPU NTT baseline: one kernel launch per butterfly
 * stage, every stage streaming the whole dataset through global memory,
 * twiddles loaded from a device table. This is the structure of early
 * GPU NTT libraries (cuHE-era) and of textbook ports; it is the lower
 * anchor of the single-GPU comparison (bench/fig07). The model is
 * analytic: it counts each stage's work and traffic and runs nothing
 * on the host.
 */

#ifndef UNINTT_BASELINES_NAIVE_GPU_HH
#define UNINTT_BASELINES_NAIVE_GPU_HH

#include "field/field_traits.hh"
#include "ntt/ntt.hh"
#include "sim/multi_gpu.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"
#include "util/logging.hh"

namespace unintt {

/** Stage-per-kernel single-GPU NTT baseline. */
template <NttField F>
class NaiveGpuNtt
{
  public:
    /** @param gpu the device model to simulate on. */
    explicit NaiveGpuNtt(GpuModel gpu)
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
        for (unsigned s = 0; s < logN; ++s) {
            KernelStats k;
            k.butterflies = n / 2 * batch;
            k.fieldMuls = k.butterflies;
            k.fieldAdds = 2 * k.butterflies;
            // Whole array read and written every stage; twiddle table
            // loads go through DRAM with no reuse across blocks.
            k.globalReadBytes = n * b * batch + k.butterflies * b;
            k.globalWriteBytes = n * b * batch;
            k.kernelLaunches = 1;
            report.addKernelPhase("stage-" + std::to_string(s), k, perf_);
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

#endif // UNINTT_BASELINES_NAIVE_GPU_HH
