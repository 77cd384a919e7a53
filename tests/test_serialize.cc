/**
 * @file
 * Tests for the proof wire format: byte-level primitives, exact
 * round-trips of FRI and STARK proofs (decoded proofs still verify),
 * and defensive rejection of truncated, padded, corrupted or
 * non-canonical buffers.
 */

#include <gtest/gtest.h>

#include "util/checksum.hh"
#include "util/random.hh"
#include "zkp/serialize.hh"

namespace unintt {
namespace {

using F = Goldilocks;

FriProof
sampleFriProof(Transcript &t)
{
    Rng rng(1);
    std::vector<F> coeffs(1 << 7);
    for (auto &c : coeffs)
        c = F::fromU64(rng.next());
    FriParams params;
    params.numQueries = 8;
    return friProve(coeffs, params, t);
}

TEST(ByteCodec, PrimitivesRoundTrip)
{
    ByteWriter w;
    w.writeU64(0);
    w.writeU64(~0ULL);
    w.writeGoldilocks(F::fromU64(12345));
    Digest d{F::fromU64(9), F::fromU64(8), F::fromU64(7), F::fromU64(6)};
    w.writeDigest(d);

    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU64(), 0ULL);
    EXPECT_EQ(r.readU64(), ~0ULL);
    EXPECT_EQ(r.readGoldilocks(), F::fromU64(12345));
    EXPECT_EQ(r.readDigest(), d);
    EXPECT_TRUE(r.exhausted());
    EXPECT_FALSE(r.readU64().has_value()); // past the end
}

TEST(ByteCodec, NonCanonicalFieldElementRejected)
{
    ByteWriter w;
    w.writeU64(Goldilocks::kModulus); // = p, not canonical
    ByteReader r(w.bytes());
    EXPECT_FALSE(r.readGoldilocks().has_value());
}

TEST(SerializeFri, RoundTripVerifies)
{
    Transcript pt("ser-fri");
    auto proof = sampleFriProof(pt);
    auto bytes = serializeFriProof(proof);
    auto back = deserializeFriProof(bytes);
    ASSERT_TRUE(back.has_value());

    // Structural equality.
    EXPECT_EQ(back->logDegreeBound, proof.logDegreeBound);
    EXPECT_EQ(back->roots, proof.roots);
    EXPECT_EQ(back->finalPoly, proof.finalPoly);
    ASSERT_EQ(back->queries.size(), proof.queries.size());

    // The decoded proof still verifies.
    FriParams params;
    params.numQueries = 8;
    Transcript vt("ser-fri");
    EXPECT_TRUE(friVerify(*back, params, vt));

    // And re-serializing is byte-identical (canonical encoding).
    EXPECT_EQ(serializeFriProof(*back), bytes);
}

TEST(SerializeFri, TruncationRejected)
{
    Transcript pt("ser-fri");
    auto bytes = serializeFriProof(sampleFriProof(pt));
    for (size_t cut : {1u, 8u, 64u}) {
        auto shorter = bytes;
        shorter.resize(bytes.size() - cut);
        EXPECT_FALSE(deserializeFriProof(shorter).has_value()) << cut;
    }
}

TEST(SerializeFri, TrailingBytesRejected)
{
    Transcript pt("ser-fri");
    auto bytes = serializeFriProof(sampleFriProof(pt));
    bytes.push_back(0);
    EXPECT_FALSE(deserializeFriProof(bytes).has_value());
}

TEST(SerializeFri, LengthFieldCorruptionRejected)
{
    Transcript pt("ser-fri");
    auto bytes = serializeFriProof(sampleFriProof(pt));
    // The second u64 is the root count; blow it up.
    auto corrupt = bytes;
    corrupt[8] = 0xff;
    corrupt[9] = 0xff;
    EXPECT_FALSE(deserializeFriProof(corrupt).has_value());
}

TEST(SerializeStark, RoundTripVerifies)
{
    SquareStark stark;
    auto proof = stark.prove(F::fromU64(42), 7);
    auto bytes = serializeStarkProof(proof);
    auto back = deserializeStarkProof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->logTrace, proof.logTrace);
    EXPECT_EQ(back->publicStart, proof.publicStart);
    EXPECT_TRUE(stark.verify(*back));
    EXPECT_EQ(serializeStarkProof(*back), bytes);
}

TEST(SerializeStark, CorruptedValueFailsVerification)
{
    SquareStark stark;
    auto proof = stark.prove(F::fromU64(42), 7);
    auto bytes = serializeStarkProof(proof);

    // Flip one byte somewhere in the middle; the decode either fails
    // (structure broken) or the decoded proof no longer verifies.
    Rng rng(2);
    int still_valid = 0;
    for (int trial = 0; trial < 16; ++trial) {
        auto corrupt = bytes;
        size_t pos = 16 + rng.below(corrupt.size() - 16);
        corrupt[pos] ^= 1u << rng.below(8);
        auto back = deserializeStarkProof(corrupt);
        if (back && stark.verify(*back))
            ++still_valid;
    }
    EXPECT_EQ(still_valid, 0);
}

TEST(SerializeStark, EmptyBufferRejected)
{
    EXPECT_FALSE(deserializeStarkProof({}).has_value());
    EXPECT_FALSE(deserializeFriProof({}).has_value());
}

TEST(SerializeStark, ProofBytesArePinned)
{
    // The size and checksum of whole serialized proofs. Every other
    // prover test compares one path against another; this one fails on
    // any change to the stage walk, FRI, the sponge or the wire format
    // that moves a proof byte.
    struct Pin
    {
        uint64_t start;
        unsigned logTrace;
        size_t bytes;
        uint64_t checksum;
    };
    const Pin pins[] = {
        {3, 5, 91704, 0xd3d249ac4307ad3cULL},
        {3, 8, 235992, 0x0eb5ffb3042f026bULL},
        {77, 10, 355224, 0xb3f7886dd6b30d58ULL},
    };
    SquareStark stark;
    for (const auto &pin : pins) {
        SCOPED_TRACE(testing::Message() << "start " << pin.start
                                        << ", log_trace " << pin.logTrace);
        auto bytes = serializeStarkProof(
            stark.prove(F::fromU64(pin.start), pin.logTrace));
        EXPECT_EQ(bytes.size(), pin.bytes);
        EXPECT_EQ(checksumBytes(bytes.data(), bytes.size()), pin.checksum);
    }
}

TEST(SerializeStark, ProofSizeIsReasonable)
{
    SquareStark stark;
    auto proof = stark.prove(F::fromU64(42), 9);
    auto bytes = serializeStarkProof(proof);
    // Kilobytes, not megabytes: succinct relative to the 2^9 trace
    // once amortized, and fully accounted.
    EXPECT_GT(bytes.size(), 1000u);
    EXPECT_LT(bytes.size(), 2u << 20);
}

} // namespace
} // namespace unintt
