/**
 * @file
 * Tests for the reference NTT layer: every fast transform is checked
 * against the O(n^2) oracle, round trips, the convolution theorem, and
 * the four-step decomposition for every factor split.
 */

#include <gtest/gtest.h>

#include "field/babybear.hh"
#include "field/bn254.hh"
#include "field/goldilocks.hh"
#include "ntt/fourstep.hh"
#include "ntt/radix2.hh"
#include "ntt/reference.hh"
#include "ntt/twiddle.hh"
#include "util/random.hh"

namespace unintt {
namespace {

template <NttField F>
std::vector<F>
randomVector(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<F> v(n);
    for (auto &e : v)
        e = F::fromU64(rng.next());
    return v;
}

template <typename F>
class NttOracle : public ::testing::Test
{
};

using NttFields = ::testing::Types<Goldilocks, BabyBear, Bn254Fr>;
TYPED_TEST_SUITE(NttOracle, NttFields);

TYPED_TEST(NttOracle, DifMatchesNaiveDft)
{
    using F = TypeParam;
    for (size_t n : {2, 4, 8, 32, 256}) {
        auto x = randomVector<F>(n, 100 + n);
        auto expect = naiveDft(x, NttDirection::Forward);
        auto got = x;
        nttForwardInPlace(got);
        EXPECT_EQ(got, expect) << "n=" << n;
    }
}

TYPED_TEST(NttOracle, InverseMatchesNaiveDft)
{
    using F = TypeParam;
    for (size_t n : {2, 8, 64}) {
        auto x = randomVector<F>(n, 200 + n);
        auto expect = naiveDft(x, NttDirection::Inverse);
        auto got = x;
        nttInverseInPlace(got);
        EXPECT_EQ(got, expect) << "n=" << n;
    }
}

TYPED_TEST(NttOracle, ForwardInverseRoundTrip)
{
    using F = TypeParam;
    for (size_t n : {2, 16, 128, 1024}) {
        auto x = randomVector<F>(n, 300 + n);
        auto y = x;
        nttForwardInPlace(y);
        nttInverseInPlace(y);
        EXPECT_EQ(y, x) << "n=" << n;
    }
}

TYPED_TEST(NttOracle, NoPermuteRoundTripNeedsNoReordering)
{
    using F = TypeParam;
    for (size_t n : {4, 64, 512}) {
        auto x = randomVector<F>(n, 400 + n);
        auto y = x;
        nttNoPermute(y, NttDirection::Forward);
        nttNoPermute(y, NttDirection::Inverse);
        EXPECT_EQ(y, x) << "n=" << n;
    }
}

TYPED_TEST(NttOracle, NoPermuteForwardIsBitReversedDft)
{
    using F = TypeParam;
    size_t n = 64;
    auto x = randomVector<F>(n, 77);
    auto natural = naiveDft(x, NttDirection::Forward);
    auto got = x;
    nttNoPermute(got, NttDirection::Forward);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], natural[bitReverse(i, log2Exact(n))]);
}

TYPED_TEST(NttOracle, FourStepMatchesNaiveForAllSplits)
{
    using F = TypeParam;
    size_t n = 256;
    auto x = randomVector<F>(n, 700);
    auto expect = naiveDft(x, NttDirection::Forward);
    for (size_t n1 = 1; n1 <= n; n1 *= 2) {
        auto got = fourStepNtt(x, n1, NttDirection::Forward);
        EXPECT_EQ(got, expect) << "n1=" << n1;
    }
}

TYPED_TEST(NttOracle, FourStepInverseRoundTrip)
{
    using F = TypeParam;
    size_t n = 128;
    auto x = randomVector<F>(n, 800);
    auto fwd = fourStepNtt(x, 8, NttDirection::Forward);
    auto back = fourStepNtt(fwd, 16, NttDirection::Inverse);
    EXPECT_EQ(back, x);
}

TYPED_TEST(NttOracle, ConvolutionTheorem)
{
    using F = TypeParam;
    size_t n = 64;
    auto a = randomVector<F>(n, 900);
    auto b = randomVector<F>(n, 901);
    auto expect = naiveCyclicConvolution(a, b);

    auto fa = a, fb = b;
    nttNoPermute(fa, NttDirection::Forward);
    nttNoPermute(fb, NttDirection::Forward);
    std::vector<F> prod(n);
    for (size_t i = 0; i < n; ++i)
        prod[i] = fa[i] * fb[i]; // pointwise works in bit-reversed order
    nttNoPermute(prod, NttDirection::Inverse);
    EXPECT_EQ(prod, expect);
}

TYPED_TEST(NttOracle, Linearity)
{
    using F = TypeParam;
    size_t n = 128;
    auto a = randomVector<F>(n, 910);
    auto b = randomVector<F>(n, 911);
    F c = F::fromU64(123456789);

    std::vector<F> combo(n);
    for (size_t i = 0; i < n; ++i)
        combo[i] = a[i] * c + b[i];

    auto fa = a, fb = b, fc = combo;
    nttForwardInPlace(fa);
    nttForwardInPlace(fb);
    nttForwardInPlace(fc);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(fc[i], fa[i] * c + fb[i]);
}

TYPED_TEST(NttOracle, DeltaTransformsToAllOnes)
{
    using F = TypeParam;
    size_t n = 32;
    std::vector<F> delta(n, F::zero());
    delta[0] = F::one();
    nttForwardInPlace(delta);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(delta[i], F::one());
}

TYPED_TEST(NttOracle, ConstantTransformsToScaledDelta)
{
    using F = TypeParam;
    size_t n = 32;
    std::vector<F> ones(n, F::one());
    nttForwardInPlace(ones);
    EXPECT_EQ(ones[0], F::fromU64(n));
    for (size_t i = 1; i < n; ++i)
        EXPECT_EQ(ones[i], F::zero());
}

TEST(Twiddle, TableHoldsConsecutivePowers)
{
    TwiddleTable<Goldilocks> tw(64, NttDirection::Forward);
    Goldilocks w = Goldilocks::rootOfUnity(6);
    EXPECT_EQ(tw.root(), w);
    Goldilocks acc = Goldilocks::one();
    for (size_t i = 0; i < 32; ++i) {
        EXPECT_EQ(tw[i], acc);
        acc *= w;
    }
    EXPECT_EQ(tw.sizeBytes(), 32 * sizeof(Goldilocks));
}

TEST(Twiddle, InverseTableIsElementwiseInverse)
{
    TwiddleTable<Goldilocks> fwd(32, NttDirection::Forward);
    TwiddleTable<Goldilocks> inv(32, NttDirection::Inverse);
    for (size_t i = 0; i < 16; ++i)
        EXPECT_EQ(fwd[i] * inv[i], Goldilocks::one());
}

TEST(Twiddle, InverseScaleUndoesN)
{
    auto s = inverseScale<Goldilocks>(4096);
    EXPECT_EQ(s * Goldilocks::fromU64(4096), Goldilocks::one());
}

// Size-1 edge cases.
TEST(NttEdge, SizeOneIsIdentity)
{
    std::vector<Goldilocks> x{Goldilocks::fromU64(42)};
    auto z = fourStepNtt(x, 1, NttDirection::Forward);
    EXPECT_EQ(z, x);
}

} // namespace
} // namespace unintt
