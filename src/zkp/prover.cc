#include "zkp/prover.hh"

#include <algorithm>

#include "baselines/fourstep_multigpu.hh"
#include "field/bn254.hh"
#include "field/goldilocks.hh"
#include "msm/pippenger.hh"
#include "ntt/ntt.hh"
#include "sim/perf_model.hh"
#include "unintt/engine.hh"
#include "util/logging.hh"

namespace unintt {

namespace {

/**
 * Simulated seconds of one forward 2^log_size NTT on the engine that
 * @p backend names, built for @p sys.
 */
template <NttField F>
double
analyticNttSeconds(NttBackend backend, const MultiGpuSystem &sys,
                   unsigned log_size)
{
    const auto dir = NttDirection::Forward;
    switch (backend) {
      case NttBackend::UniNtt:
        return UniNttEngine<F>(sys).analyticRun(log_size, dir)
            .totalSeconds();
      case NttBackend::FourStep:
        return FourStepMultiGpuNtt<F>(sys).analyticRun(log_size, dir)
            .totalSeconds();
      case NttBackend::SingleGpu: {
        // The other GPUs idle: UniNTT on a one-device copy of the node.
        MultiGpuSystem solo = sys;
        solo.numGpus = 1;
        return UniNttEngine<F>(solo).analyticRun(log_size, dir)
            .totalSeconds();
      }
    }
    return 0;
}

} // namespace

const char *
toString(NttBackend backend)
{
    switch (backend) {
      case NttBackend::UniNtt:
        return "unintt";
      case NttBackend::FourStep:
        return "fourstep";
      case NttBackend::SingleGpu:
        return "single-gpu";
    }
    return "?";
}

ZkpPipeline::ZkpPipeline(MultiGpuSystem sys, NttBackend backend)
    : sys_(std::move(sys)), backend_(backend)
{
}

std::vector<ProverStage>
ZkpPipeline::groth16Stages(unsigned log_constraints)
{
    using Kind = ProverStage::Kind;
    unsigned n = log_constraints;
    return {
        // Witness polynomials a, b, c from constraint evaluations.
        {"witness-intt", Kind::Ntt, n, 3},
        // Coset evaluations for the quotient.
        {"coset-ntt", Kind::Ntt, n, 3},
        // h = (a*b - c) / Z on the coset, pointwise.
        {"quotient-pointwise", Kind::Pointwise, n, 1},
        // Back to coefficients of h.
        {"quotient-intt", Kind::Ntt, n, 1},
        // Proof elements: [A]1, [C]1, [H]1 and [B]2.
        {"msm-A", Kind::MsmG1, n, 1},
        {"msm-C", Kind::MsmG1, n, 1},
        {"msm-H", Kind::MsmG1, n, 1},
        {"msm-B", Kind::MsmG2, n, 1},
    };
}

std::vector<ProverStage>
ZkpPipeline::plonkStages(unsigned log_constraints)
{
    using Kind = ProverStage::Kind;
    unsigned n = log_constraints;
    unsigned q = n + 2; // quotient domain is 4x the gate domain
    return {
        // Wire polynomials a, b, c.
        {"wire-intt", Kind::Ntt, n, 3},
        {"wire-coset-ntt", Kind::Ntt, q, 3},
        // Permutation accumulator z.
        {"perm-intt", Kind::Ntt, n, 1},
        {"perm-coset-ntt", Kind::Ntt, q, 1},
        // Quotient t on the 4n coset, then back to coefficients.
        {"quotient-pointwise", Kind::Pointwise, q, 1},
        {"quotient-intt", Kind::Ntt, q, 1},
        // Commitments: 3 wires + z + 3 quotient splits.
        {"msm-wires", Kind::MsmG1, n, 3},
        {"msm-z", Kind::MsmG1, n, 1},
        {"msm-t", Kind::MsmG1, n, 3},
        // Opening proof polynomials.
        {"opening-ntt", Kind::Ntt, n, 1},
        {"msm-opening", Kind::MsmG1, n, 2},
    };
}

std::vector<ProverStage>
ZkpPipeline::starkStages(unsigned log_trace, unsigned columns)
{
    using Kind = ProverStage::Kind;
    unsigned n = log_trace;
    unsigned lde = n + 2; // 4x blowup LDE domain
    std::vector<ProverStage> stages{
        // Trace columns: interpolate, extend, hash into Merkle leaves.
        {"trace-intt", Kind::Ntt, n, columns},
        {"trace-lde", Kind::Ntt, lde, columns},
        {"trace-merkle", Kind::Hash, lde, columns},
        // Constraint evaluation and the quotient commitment.
        {"constraint-pointwise", Kind::Pointwise, lde, columns},
        {"quotient-intt", Kind::Ntt, lde, 1},
        {"quotient-lde", Kind::Ntt, lde, 1},
        {"quotient-merkle", Kind::Hash, lde, 1},
    };
    // FRI folding: each round a pointwise fold + Merkle re-commit on a
    // halved domain.
    for (unsigned r = 0; r + 3 <= lde; r += 1) {
        unsigned size = lde - r;
        if (size < 6)
            break;
        stages.push_back({"fri-fold", Kind::Pointwise, size, 1});
        stages.push_back({"fri-merkle", Kind::Hash, size - 1, 1});
    }
    return stages;
}

ProverBreakdown
ZkpPipeline::estimateHashBased(const std::vector<ProverStage> &stages) const
{
    ProverBreakdown out;
    for (const auto &stage : stages) {
        double t = 0;
        switch (stage.kind) {
          case ProverStage::Kind::Ntt:
            t = nttSecondsGoldilocks(stage.logSize);
            out.nttSeconds += t * stage.count;
            break;
          case ProverStage::Kind::Hash:
            t = hashSeconds(stage.logSize);
            out.otherSeconds += t * stage.count;
            break;
          case ProverStage::Kind::Pointwise:
            t = pointwiseSeconds(stage.logSize, /*goldilocks=*/true);
            out.otherSeconds += t * stage.count;
            break;
          case ProverStage::Kind::MsmG1:
          case ProverStage::Kind::MsmG2:
            panic("hash-based schedules have no MSM stages");
        }
    }
    return out;
}

ProverBreakdown
ZkpPipeline::estimateHashBasedPipelined(
    const std::vector<ProverStage> &stages) const
{
    ProverBreakdown out = estimateHashBased(stages);
    // Pair each Hash stage with the next NTT stage that has no other
    // commit in between: the commit reads only already-final codeword
    // bytes and the NTT reads only already-absorbed polynomials, so
    // the two are independent and the shorter one hides behind the
    // longer (the prover-level analogue of the engine's DAG
    // exchange/butterfly waves). Each NTT stage is consumed at most
    // once.
    size_t next_ntt = 0;
    for (size_t i = 0; i < stages.size(); ++i) {
        if (stages[i].kind != ProverStage::Kind::Hash)
            continue;
        size_t j = std::max(next_ntt, i + 1);
        while (j < stages.size() &&
               stages[j].kind != ProverStage::Kind::Ntt &&
               stages[j].kind != ProverStage::Kind::Hash)
            j++;
        if (j >= stages.size() ||
            stages[j].kind != ProverStage::Kind::Ntt)
            continue;
        out.hiddenSeconds += std::min(hashBasedStageSeconds(stages[i]),
                                      hashBasedStageSeconds(stages[j]));
        next_ntt = j + 1;
    }
    return out;
}

double
ZkpPipeline::hashBasedStageSeconds(const ProverStage &stage) const
{
    switch (stage.kind) {
      case ProverStage::Kind::Ntt:
        return nttSecondsGoldilocks(stage.logSize) * stage.count;
      case ProverStage::Kind::Hash:
        return hashSeconds(stage.logSize) * stage.count;
      case ProverStage::Kind::Pointwise:
        return pointwiseSeconds(stage.logSize, /*goldilocks=*/true) *
               stage.count;
      case ProverStage::Kind::MsmG1:
      case ProverStage::Kind::MsmG2:
        panic("hash-based schedules have no MSM stages");
    }
    return 0;
}

double
ZkpPipeline::nttSecondsGoldilocks(unsigned log_size) const
{
    return analyticNttSeconds<Goldilocks>(backend_, sys_, log_size);
}

double
ZkpPipeline::hashSeconds(unsigned log_size) const
{
    // Sponge hashing of 2^log_size Goldilocks elements, perfectly
    // parallel across GPUs. One width-12, 8-round permutation absorbs
    // 8 elements and costs ~8 * (12 s-boxes * 3 muls + 144 MDS
    // mul-adds) ~= 1700 mul-equivalents, i.e. ~210 per element.
    PerfModel perf(sys_.gpu, fieldCostOf<Goldilocks>());
    uint64_t chunk = (1ULL << log_size) / sys_.numGpus;
    KernelStats k;
    k.fieldMuls = chunk * 210;
    k.fieldAdds = chunk * 150;
    k.globalReadBytes = chunk * 8;
    k.globalWriteBytes = chunk * 8; // digests, amortized
    k.kernelLaunches = 1;
    return perf.kernelSeconds(k);
}

double
ZkpPipeline::nttSeconds(unsigned log_size) const
{
    return analyticNttSeconds<Bn254Fr>(backend_, sys_, log_size);
}

double
ZkpPipeline::msmSeconds(unsigned log_size, bool g2) const
{
    MsmEngine engine(sys_);
    return engine.analyticRun(1ULL << log_size, g2).totalSeconds();
}

double
ZkpPipeline::pointwiseSeconds(unsigned log_size, bool goldilocks) const
{
    // Three-operand pointwise pass, perfectly parallel across GPUs.
    FieldCost fc = goldilocks ? fieldCostOf<Goldilocks>()
                              : fieldCostOf<Bn254Fr>();
    PerfModel perf(sys_.gpu, fc);
    uint64_t chunk = (1ULL << log_size) / sys_.numGpus;
    KernelStats k;
    k.fieldMuls = chunk * 2;
    k.fieldAdds = chunk;
    k.globalReadBytes = 3 * chunk * fc.elementBytes;
    k.globalWriteBytes = chunk * fc.elementBytes;
    k.kernelLaunches = 1;
    return perf.kernelSeconds(k);
}

ProverBreakdown
ZkpPipeline::estimate(const std::vector<ProverStage> &stages) const
{
    ProverBreakdown out;
    for (const auto &stage : stages) {
        double t = 0;
        switch (stage.kind) {
          case ProverStage::Kind::Ntt:
            t = nttSeconds(stage.logSize);
            out.nttSeconds += t * stage.count;
            break;
          case ProverStage::Kind::MsmG1:
            t = msmSeconds(stage.logSize, false);
            out.msmSeconds += t * stage.count;
            break;
          case ProverStage::Kind::MsmG2:
            t = msmSeconds(stage.logSize, true);
            out.msmSeconds += t * stage.count;
            break;
          case ProverStage::Kind::Pointwise:
            t = pointwiseSeconds(stage.logSize);
            out.otherSeconds += t * stage.count;
            break;
          case ProverStage::Kind::Hash:
            t = hashSeconds(stage.logSize);
            out.otherSeconds += t * stage.count;
            break;
        }
    }
    return out;
}

} // namespace unintt
