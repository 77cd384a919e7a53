/**
 * @file
 * Wire format for proofs. Proof systems are only useful if proofs
 * survive a network hop; this module provides a small length-checked
 * little-endian binary codec (ByteWriter/ByteReader) and encoders/
 * decoders for the FRI and STARK proofs that the CLI writes and the
 * checkpoint store persists. Decoding is defensive:
 * malformed or truncated buffers yield decode failure, never undefined
 * behavior.
 */

#ifndef UNINTT_ZKP_SERIALIZE_HH
#define UNINTT_ZKP_SERIALIZE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "zkp/fri.hh"
#include "zkp/stark.hh"

namespace unintt {

/** Append-only little-endian byte buffer. */
class ByteWriter
{
  public:
    /** Append one 64-bit word. */
    void writeU64(uint64_t v);

    /** Append a field element (canonical form). */
    void writeGoldilocks(Goldilocks v) { writeU64(v.value()); }

    /** Append a digest. */
    void writeDigest(const Digest &d);

    /** The serialized bytes. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<uint8_t> bytes_;
};

/** Bounds-checked reader over a byte buffer. */
class ByteReader
{
  public:
    explicit ByteReader(const std::vector<uint8_t> &bytes)
        : bytes_(bytes)
    {
    }

    /** Read one 64-bit word; nullopt past the end. */
    std::optional<uint64_t> readU64();

    /** Read a canonical field element; nullopt if out of range. */
    std::optional<Goldilocks> readGoldilocks();

    /** Read a digest. */
    std::optional<Digest> readDigest();

    /** True iff every byte has been consumed. */
    bool exhausted() const { return pos_ == bytes_.size(); }

  private:
    const std::vector<uint8_t> &bytes_;
    size_t pos_ = 0;
};

/**
 * Append a FRI proof to an open writer. Exposed (unlike the other
 * per-type internals) so composite payloads — e.g. the checkpoint
 * store's commit-stage entries (zkp/checkpoint.hh) — can embed a FRI
 * proof next to other fields in one buffer.
 */
void writeFriProof(ByteWriter &w, const FriProof &proof);

/**
 * Read a FRI proof from an open reader; nullopt on any malformation
 * (the reader position is unspecified after a failure).
 */
std::optional<FriProof> readFriProof(ByteReader &r);

/** Serialize a FRI proof. */
std::vector<uint8_t> serializeFriProof(const FriProof &proof);

/** Deserialize a FRI proof; nullopt on any malformation. */
std::optional<FriProof> deserializeFriProof(
    const std::vector<uint8_t> &bytes);

/**
 * Append an AIR proof to an open writer: log_trace, the boundary
 * values, the column, quotient and boundary FRI proofs, then the
 * queries (column values at x and g*x, Q and B at x, then their
 * paths). Counts the AIR fixes (columns, boundaries) are not written.
 */
void writeAirProof(ByteWriter &w, const AirProof &proof);

/**
 * Read a proof of @p air written by writeAirProof; nullopt on any
 * malformation (the reader position is unspecified after a failure).
 */
std::optional<AirProof> readAirProof(ByteReader &r, const Air &air);

/**
 * Serialize a square-machine STARK proof: writeAirProof of its
 * one-column form, so a checkpointed walk's final payload and this
 * encoding are the same bytes.
 */
std::vector<uint8_t> serializeStarkProof(const StarkProof &proof);

/** Deserialize a STARK proof; nullopt on any malformation. */
std::optional<StarkProof> deserializeStarkProof(
    const std::vector<uint8_t> &bytes);

} // namespace unintt

#endif // UNINTT_ZKP_SERIALIZE_HH
