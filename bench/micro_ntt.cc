/**
 * @file
 * Micro-benchmarks (google-benchmark): real wall-clock time of the
 * host-side transforms — the radix-2 reference over its cached twiddle
 * slabs, and the functional UniNTT engine forward and inverse (which
 * pays the simulator bookkeeping on top of the same arithmetic).
 */

#include <benchmark/benchmark.h>

#include "field/bn254.hh"
#include "field/goldilocks.hh"
#include "ntt/radix2.hh"
#include "unintt/engine.hh"
#include "util/random.hh"

namespace unintt {
namespace {

template <NttField F>
std::vector<F>
randomVector(size_t n)
{
    Rng rng(7);
    std::vector<F> v(n);
    for (auto &e : v)
        e = F::fromU64(rng.next());
    return v;
}

template <typename F>
void
BM_CpuRadix2(benchmark::State &state)
{
    size_t n = 1ULL << state.range(0);
    auto x = randomVector<F>(n);
    auto sl = cachedTwiddleSlabs<F>(n, NttDirection::Forward);
    for (auto _ : state) {
        nttDif(x.data(), n, *sl);
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}

/** One functional engine transform per iteration, in either direction. */
template <typename F, NttDirection Dir>
void
BM_UniNttFunctional(benchmark::State &state)
{
    size_t n = 1ULL << state.range(0);
    auto x = randomVector<F>(n);
    UniNttEngine<F> engine(makeDgxA100(4));
    auto dist = DistributedVector<F>::fromGlobal(x, 4);
    for (auto _ : state) {
        auto report = Dir == NttDirection::Forward ? engine.forward(dist)
                                                   : engine.inverse(dist);
        benchmark::DoNotOptimize(report.totalSeconds());
    }
    state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK(BM_CpuRadix2<Goldilocks>)->Arg(12)->Arg(16)->Arg(20);
BENCHMARK(BM_CpuRadix2<Bn254Fr>)->Arg(12)->Arg(16);
BENCHMARK(BM_UniNttFunctional<Goldilocks, NttDirection::Forward>)
    ->Arg(12)
    ->Arg(16)
    ->Arg(18);
BENCHMARK(BM_UniNttFunctional<Goldilocks, NttDirection::Inverse>)
    ->Arg(12)
    ->Arg(16)
    ->Arg(18);

} // namespace
} // namespace unintt

BENCHMARK_MAIN();
