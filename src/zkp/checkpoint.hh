/**
 * @file
 * Checkpoint store for the STARK proof pipeline.
 *
 * A proof chains expensive stages — trace LDE, the FRI commit of the
 * trace, the constraint quotient, its commit, the boundary quotient,
 * its commit, and the final spot-check queries — and each stage's
 * output is a pure function of the public inputs and the stages
 * before it. Losing a device in FRI round 7 therefore does not have
 * to cost the whole proof: persist each stage's output as it
 * completes, and a resumed prover replays only the failed stage.
 *
 * Every entry is sealed with a position-salted checksum
 * (util/checksum.hh): the payload checksum is mixed with the stage
 * index and the entry key, so a payload that bit-rots, or that is
 * moved wholesale to a different stage or key, reads back as absent —
 * the stage recomputes, and a corrupted checkpoint can never produce
 * a silently wrong proof. A failed validation is indistinguishable
 * from a miss on purpose; the stats() record it for observability.
 *
 * The store is an in-memory map; durability across processes is out
 * of scope (the simulated machine has no disks), but the interface —
 * opaque bytes in, validated bytes out — is exactly what a file or
 * object-store backend would implement.
 */

#ifndef UNINTT_ZKP_CHECKPOINT_HH
#define UNINTT_ZKP_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/status.hh"
#include "zkp/fri.hh"

namespace unintt {

class ByteWriter;
class ByteReader;

/** Observability counters of one CheckpointStore. */
struct CheckpointStats
{
    /** Entries written (including overwrites). */
    uint64_t puts = 0;
    /** Reads that validated and returned a payload. */
    uint64_t hits = 0;
    /** Reads of absent entries. */
    uint64_t misses = 0;
    /** Reads rejected by the checksum or stage seal. */
    uint64_t checksumFailures = 0;
    /** Total payload bytes written over the store's lifetime. */
    uint64_t bytesWritten = 0;
};

/** Checksummed (stage, key) → payload map; see the file comment. */
class CheckpointStore
{
  public:
    /** Store @p payload under (@p stage, @p key), replacing any. */
    void put(unsigned stage, const std::string &key,
             std::vector<uint8_t> payload);

    /**
     * The payload stored under (@p stage, @p key), or nullopt when
     * absent, sealed for a different stage, or failing its checksum
     * — corrupted state is never returned, only recomputed around.
     */
    std::optional<std::vector<uint8_t>> get(unsigned stage,
                                            const std::string &key);

    /** True iff an entry exists under @p key (validity not checked). */
    bool has(const std::string &key) const;

    /** Drop every entry whose key starts with @p prefix. */
    void erasePrefix(const std::string &prefix);

    /** Number of live entries. */
    size_t entries() const { return entries_.size(); }

    /** Sum of live payload sizes. */
    uint64_t payloadBytes() const;

    /** Keys of every live entry, ascending. */
    std::vector<std::string> keys() const;

    /**
     * Chaos/test hook: XOR @p mask into payload byte @p offset of the
     * entry under @p key (offset wraps modulo the payload size). The
     * seal is left untouched, so the next get() must detect the flip.
     * @return false when the entry is absent or empty or mask is 0.
     */
    bool corrupt(const std::string &key, size_t offset, uint8_t mask);

    /** Lifetime counters. */
    const CheckpointStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        unsigned stage = 0;
        std::vector<uint8_t> payload;
        /** Position-salted checksum over (stage, key, payload). */
        uint64_t seal = 0;
    };

    static uint64_t sealOf(unsigned stage, const std::string &key,
                           const std::vector<uint8_t> &payload);

    std::map<std::string, Entry> entries_;
    CheckpointStats stats_;
};

/** Gate consulted before a FRI fold round executes (chaos harness). */
using FriRoundGate =
    std::function<Status(const std::string &stage, unsigned round)>;

/**
 * FriRoundCheckpointer backed by a CheckpointStore: round r of a
 * commit stage lives under "<prefix>/round-<r>", sealed with the
 * stage's index. An optional FriRoundGate injects interruptions
 * between rounds (the chaos soak uses this to kill proofs mid-FRI).
 */
class StoreRoundCheckpointer : public FriRoundCheckpointer
{
  public:
    StoreRoundCheckpointer(CheckpointStore &store, unsigned stage,
                           std::string prefix, FriRoundGate gate = {});

    std::optional<std::vector<Goldilocks>>
    loadRound(unsigned round) override;
    void saveRound(unsigned round,
                   const std::vector<Goldilocks> &codeword) override;
    Status roundGate(unsigned round) override;

    /** Drop this stage's round entries (the stage checkpoint
     * supersedes them once the commit completes). */
    void dropRounds();

  private:
    std::string roundKey(unsigned round) const;

    CheckpointStore &store_;
    unsigned stage_;
    std::string prefix_;
    FriRoundGate gate_;
};

/** Append a field-element vector (count-prefixed) to @p w. */
void writeFieldVector(ByteWriter &w, const std::vector<Goldilocks> &v);

/** Read a count-prefixed field-element vector; nullopt when
 * malformed or longer than @p max_len. */
std::optional<std::vector<Goldilocks>>
readFieldVector(ByteReader &r, uint64_t max_len);

} // namespace unintt

#endif // UNINTT_ZKP_CHECKPOINT_HH
