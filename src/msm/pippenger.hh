/**
 * @file
 * Pippenger (bucket-method) multi-scalar multiplication over BN254
 * G1, plus the multi-GPU MSM engine. MSM is the other dominant kernel
 * of ZKP proof generation; prior work already scales it across GPUs,
 * which is exactly why NTT becomes the bottleneck the paper attacks
 * (bench/fig01_motivation).
 */

#ifndef UNINTT_MSM_PIPPENGER_HH
#define UNINTT_MSM_PIPPENGER_HH

#include <vector>

#include "field/u256.hh"
#include "msm/curve.hh"
#include "sim/multi_gpu.hh"
#include "sim/perf_model.hh"
#include "sim/report.hh"
#include "util/logging.hh"

namespace unintt {

/** Automatic Pippenger window width for @p n points. */
unsigned pippengerWindowBits(size_t n);

/**
 * Bucket-method MSM over G1: sum_i scalars[i] * points[i].
 *
 * @param points      base points (affine).
 * @param scalars     canonical (non-Montgomery) 256-bit scalars.
 * @param window_bits bucket window width; 0 selects automatically.
 */
G1Jacobian pippengerMsm(const std::vector<G1Affine> &points,
                        const std::vector<U256> &scalars,
                        unsigned window_bits = 0);

/** Reference G1 MSM by independent scalar multiplications. */
G1Jacobian naiveMsm(const std::vector<G1Affine> &points,
                    const std::vector<U256> &scalars);

/**
 * Multi-GPU MSM engine: points are partitioned across devices, each
 * device runs bucket accumulation locally, partial sums are reduced
 * over the fabric (log2 G point transfers). Functional execution is
 * host-side Pippenger; the timeline is produced by the same analytic
 * machinery the NTT engines use.
 */
class MsmEngine
{
  public:
    explicit MsmEngine(MultiGpuSystem sys);

    /** Functional G1 MSM plus its simulated timeline. */
    G1Jacobian msm(const std::vector<G1Affine> &points,
                   const std::vector<U256> &scalars,
                   SimReport *report = nullptr) const;

    /**
     * Simulated timeline only, for size @p n.
     * @param g2 price the G2 variant (extension-field arithmetic,
     *           wider points).
     */
    SimReport analyticRun(size_t n, bool g2 = false) const;

    /** The machine being modeled. */
    const MultiGpuSystem &system() const { return sys_; }

  private:
    MultiGpuSystem sys_;
    PerfModel perf_;
};

} // namespace unintt

#endif // UNINTT_MSM_PIPPENGER_HH
