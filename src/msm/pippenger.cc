#include "msm/pippenger.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace unintt {

unsigned
pippengerWindowBits(size_t n)
{
    if (n < 32)
        return 3;
    // Classic heuristic: c ~= log2(n) - 3, clamped to a sane range.
    unsigned c = log2Floor(n);
    c = c > 3 ? c - 3 : 1;
    return std::min(c, 16u);
}

G1Jacobian
naiveMsm(const std::vector<G1Affine> &points,
         const std::vector<U256> &scalars)
{
    UNINTT_ASSERT(points.size() == scalars.size(), "size mismatch");
    G1Jacobian acc = G1Jacobian::infinity();
    for (size_t i = 0; i < points.size(); ++i)
        acc = acc.add(
            G1Jacobian::fromAffine(points[i]).scalarMul(scalars[i]));
    return acc;
}

G1Jacobian
pippengerMsm(const std::vector<G1Affine> &points,
             const std::vector<U256> &scalars, unsigned window_bits)
{
    UNINTT_ASSERT(points.size() == scalars.size(), "size mismatch");
    if (points.empty())
        return G1Jacobian::infinity();
    const unsigned c =
        window_bits ? window_bits : pippengerWindowBits(points.size());
    const unsigned num_windows = (254 + c - 1) / c;
    const uint64_t num_buckets = (1ULL << c) - 1;

    G1Jacobian result = G1Jacobian::infinity();
    // Process windows from the most significant down, so the running
    // result is shifted by c doublings between windows.
    for (int w = static_cast<int>(num_windows) - 1; w >= 0; --w) {
        for (unsigned d = 0; d < c; ++d)
            result = result.dbl();

        std::vector<G1Jacobian> buckets(num_buckets,
                                        G1Jacobian::infinity());
        for (size_t i = 0; i < points.size(); ++i) {
            // Extract bits [w*c, w*c + c) of the scalar.
            uint64_t digit = 0;
            for (unsigned b = 0; b < c; ++b) {
                unsigned bit = static_cast<unsigned>(w) * c + b;
                if (bit < 256 && scalars[i].bit(bit))
                    digit |= 1ULL << b;
            }
            if (digit != 0)
                buckets[digit - 1] = buckets[digit - 1]
                                         .addAffine(points[i]);
        }

        // Weighted bucket sum via the running-sum trick:
        // sum_k k * bucket[k] = sum of suffix sums.
        G1Jacobian running = G1Jacobian::infinity();
        G1Jacobian window_sum = G1Jacobian::infinity();
        for (uint64_t k = num_buckets; k-- > 0;) {
            running = running.add(buckets[k]);
            window_sum = window_sum.add(running);
        }
        result = result.add(window_sum);
    }
    return result;
}

MsmEngine::MsmEngine(MultiGpuSystem sys)
    : sys_(std::move(sys)), perf_(sys_.gpu, fieldCostOf<Bn254Fq>())
{
}

G1Jacobian
MsmEngine::msm(const std::vector<G1Affine> &points,
               const std::vector<U256> &scalars, SimReport *report) const
{
    if (report)
        *report = analyticRun(points.size());
    return pippengerMsm(points, scalars);
}

SimReport
MsmEngine::analyticRun(size_t n, bool g2) const
{
    SimReport report;
    const unsigned G = sys_.numGpus;
    const size_t per_gpu = (n + G - 1) / G;
    const unsigned c = pippengerWindowBits(per_gpu ? per_gpu : 1);
    const unsigned num_windows = (254 + c - 1) / c;
    const uint64_t num_buckets = (1ULL << c) - 1;

    // G2 coordinates live in the quadratic extension of Fq: 3 Fq muls
    // per coordinate mul and twice the point footprint.
    const double mul_factor = g2 ? kG2CoordMulFqMuls : 1.0;
    const size_t point_bytes = g2 ? kG2PointBytes : kG1AffineBytes;

    // Bucket accumulation: one mixed add per point per window, plus the
    // bucket reduction (2 full adds per bucket) and c doublings, per
    // window. Fq-multiply counts use the EFD formula costs.
    KernelStats k;
    double muls =
        (static_cast<double>(per_gpu) * num_windows * kG1MixedAddFqMuls +
         static_cast<double>(num_buckets) * num_windows * 2 *
             kG1AddFqMuls +
         static_cast<double>(num_windows) * c * kG1DoubleFqMuls) *
        mul_factor;
    k.fieldMuls = static_cast<uint64_t>(muls);
    k.fieldAdds = k.fieldMuls * 2; // EFD formulas are mul-dominated
    k.globalReadBytes = per_gpu * (point_bytes + 32);
    k.globalWriteBytes = num_buckets * num_windows * 3 * point_bytes / 2;
    k.kernelLaunches = num_windows;
    report.addKernelPhase("bucket-accumulation", k, perf_);

    if (G > 1) {
        // Tree reduction of partial sums: log2(G) rounds of one point
        // transfer plus one Jacobian add.
        unsigned rounds = log2Floor(G);
        for (unsigned r = 0; r < rounds; ++r) {
            CommStats comm{3 * point_bytes / 2, 1};
            report.addCommPhase(
                "partial-reduce-" + std::to_string(r),
                sys_.fabric.pairwiseExchangeTime(comm.bytesPerGpu,
                                                 1u << r),
                comm);
        }
        KernelStats red;
        red.fieldMuls = static_cast<uint64_t>(rounds * kG1AddFqMuls *
                                              mul_factor);
        red.fieldAdds = red.fieldMuls * 2;
        red.kernelLaunches = 1;
        report.addKernelPhase("partial-reduce-adds", red, perf_);
    }
    return report;
}

} // namespace unintt
