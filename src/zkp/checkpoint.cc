#include "zkp/checkpoint.hh"

#include "util/checksum.hh"
#include "zkp/serialize.hh"

namespace unintt {

namespace {

/** Bound on checkpointed vector lengths (matches serialize.cc). */
constexpr uint64_t kMaxCheckpointLen = 1ULL << 24;

} // namespace

uint64_t
CheckpointStore::sealOf(unsigned stage, const std::string &key,
                        const std::vector<uint8_t> &payload)
{
    // Position-salted: the payload checksum is mixed with the stage
    // index and the key's own checksum, so a payload replayed under a
    // different stage or key fails validation even though its bytes
    // are intact.
    uint64_t h = checksumBytes(payload.data(), payload.size());
    h = mix64(h ^ mix64(stage + 1));
    h = mix64(h ^ checksumBytes(key.data(), key.size()));
    return h;
}

void
CheckpointStore::put(unsigned stage, const std::string &key,
                     std::vector<uint8_t> payload)
{
    Entry e;
    e.stage = stage;
    e.seal = sealOf(stage, key, payload);
    stats_.puts++;
    stats_.bytesWritten += payload.size();
    e.payload = std::move(payload);
    entries_[key] = std::move(e);
}

std::optional<std::vector<uint8_t>>
CheckpointStore::get(unsigned stage, const std::string &key)
{
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        stats_.misses++;
        return std::nullopt;
    }
    const Entry &e = it->second;
    if (e.stage != stage || e.seal != sealOf(stage, key, e.payload)) {
        stats_.checksumFailures++;
        return std::nullopt;
    }
    stats_.hits++;
    return e.payload;
}

bool
CheckpointStore::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

void
CheckpointStore::erasePrefix(const std::string &prefix)
{
    for (auto it = entries_.lower_bound(prefix);
         it != entries_.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;) {
        it = entries_.erase(it);
    }
}

uint64_t
CheckpointStore::payloadBytes() const
{
    uint64_t total = 0;
    for (const auto &kv : entries_)
        total += kv.second.payload.size();
    return total;
}

std::vector<std::string>
CheckpointStore::keys() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &kv : entries_)
        out.push_back(kv.first);
    return out;
}

bool
CheckpointStore::corrupt(const std::string &key, size_t offset,
                         uint8_t mask)
{
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.payload.empty() || mask == 0)
        return false;
    it->second.payload[offset % it->second.payload.size()] ^= mask;
    return true;
}

StoreRoundCheckpointer::StoreRoundCheckpointer(CheckpointStore &store,
                                               unsigned stage,
                                               std::string prefix,
                                               FriRoundGate gate)
    : store_(store), stage_(stage), prefix_(std::move(prefix)),
      gate_(std::move(gate))
{
}

std::string
StoreRoundCheckpointer::roundKey(unsigned round) const
{
    return prefix_ + "/round-" + std::to_string(round);
}

std::optional<std::vector<Goldilocks>>
StoreRoundCheckpointer::loadRound(unsigned round)
{
    auto bytes = store_.get(stage_, roundKey(round));
    if (!bytes)
        return std::nullopt;
    ByteReader r(*bytes);
    auto cw = readFieldVector(r, kMaxCheckpointLen);
    if (!cw || !r.exhausted())
        return std::nullopt;
    return cw;
}

void
StoreRoundCheckpointer::saveRound(unsigned round,
                                  const std::vector<Goldilocks> &codeword)
{
    ByteWriter w;
    writeFieldVector(w, codeword);
    store_.put(stage_, roundKey(round), w.bytes());
}

Status
StoreRoundCheckpointer::roundGate(unsigned round)
{
    if (gate_)
        return gate_(prefix_, round);
    return Status();
}

void
StoreRoundCheckpointer::dropRounds()
{
    store_.erasePrefix(prefix_ + "/round-");
}

void
writeFieldVector(ByteWriter &w, const std::vector<Goldilocks> &v)
{
    w.writeU64(v.size());
    for (const auto &x : v)
        w.writeGoldilocks(x);
}

std::optional<std::vector<Goldilocks>>
readFieldVector(ByteReader &r, uint64_t max_len)
{
    auto n = r.readU64();
    if (!n || *n > max_len)
        return std::nullopt;
    std::vector<Goldilocks> out;
    out.reserve(*n);
    for (uint64_t i = 0; i < *n; ++i) {
        auto x = r.readGoldilocks();
        if (!x)
            return std::nullopt;
        out.push_back(*x);
    }
    return out;
}

} // namespace unintt
