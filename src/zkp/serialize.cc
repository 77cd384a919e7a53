#include "zkp/serialize.hh"

namespace unintt {

namespace {

/** Refuse absurd counts so corrupt length fields cannot OOM us. */
constexpr uint64_t kMaxVectorLen = 1ULL << 24;

} // namespace

void
ByteWriter::writeU64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ByteWriter::writeDigest(const Digest &d)
{
    for (const auto &g : d)
        writeGoldilocks(g);
}

std::optional<uint64_t>
ByteReader::readU64()
{
    if (pos_ + 8 > bytes_.size())
        return std::nullopt;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(bytes_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

std::optional<Goldilocks>
ByteReader::readGoldilocks()
{
    auto v = readU64();
    if (!v || *v >= Goldilocks::kModulus)
        return std::nullopt; // non-canonical encodings are rejected
    return Goldilocks::fromU64(*v);
}

std::optional<Digest>
ByteReader::readDigest()
{
    Digest d;
    for (auto &g : d) {
        auto v = readGoldilocks();
        if (!v)
            return std::nullopt;
        g = *v;
    }
    return d;
}

namespace {

void
writeMerklePath(ByteWriter &w, const MerklePath &path)
{
    w.writeU64(path.index);
    w.writeU64(path.siblings.size());
    for (const auto &d : path.siblings)
        w.writeDigest(d);
}

std::optional<MerklePath>
readMerklePath(ByteReader &r)
{
    MerklePath path;
    auto index = r.readU64();
    auto count = r.readU64();
    if (!index || !count || *count > 64)
        return std::nullopt;
    path.index = *index;
    for (uint64_t i = 0; i < *count; ++i) {
        auto d = r.readDigest();
        if (!d)
            return std::nullopt;
        path.siblings.push_back(*d);
    }
    return path;
}

} // namespace

void
writeFriProof(ByteWriter &w, const FriProof &proof)
{
    w.writeU64(proof.logDegreeBound);
    w.writeU64(proof.roots.size());
    for (const auto &root : proof.roots)
        w.writeDigest(root);
    w.writeU64(proof.finalPoly.size());
    for (const auto &c : proof.finalPoly)
        w.writeGoldilocks(c);
    w.writeU64(proof.queries.size());
    for (const auto &q : proof.queries) {
        w.writeU64(q.rounds.size());
        for (const auto &round : q.rounds) {
            w.writeGoldilocks(round.lo);
            w.writeGoldilocks(round.hi);
            writeMerklePath(w, round.loPath);
            writeMerklePath(w, round.hiPath);
        }
    }
}

std::optional<FriProof>
readFriProof(ByteReader &r)
{
    FriProof proof;
    auto bound = r.readU64();
    if (!bound || *bound > 40)
        return std::nullopt;
    proof.logDegreeBound = static_cast<unsigned>(*bound);

    auto nroots = r.readU64();
    if (!nroots || *nroots > 64)
        return std::nullopt;
    for (uint64_t i = 0; i < *nroots; ++i) {
        auto d = r.readDigest();
        if (!d)
            return std::nullopt;
        proof.roots.push_back(*d);
    }

    auto nfinal = r.readU64();
    if (!nfinal || *nfinal > kMaxVectorLen)
        return std::nullopt;
    for (uint64_t i = 0; i < *nfinal; ++i) {
        auto c = r.readGoldilocks();
        if (!c)
            return std::nullopt;
        proof.finalPoly.push_back(*c);
    }

    auto nqueries = r.readU64();
    if (!nqueries || *nqueries > 4096)
        return std::nullopt;
    for (uint64_t q = 0; q < *nqueries; ++q) {
        auto nrounds = r.readU64();
        if (!nrounds || *nrounds > 64)
            return std::nullopt;
        FriQuery query;
        for (uint64_t i = 0; i < *nrounds; ++i) {
            FriQueryRound round;
            auto lo = r.readGoldilocks();
            auto hi = r.readGoldilocks();
            if (!lo || !hi)
                return std::nullopt;
            round.lo = *lo;
            round.hi = *hi;
            auto lo_path = readMerklePath(r);
            auto hi_path = readMerklePath(r);
            if (!lo_path || !hi_path)
                return std::nullopt;
            round.loPath = *lo_path;
            round.hiPath = *hi_path;
            query.rounds.push_back(std::move(round));
        }
        proof.queries.push_back(std::move(query));
    }
    return proof;
}

std::vector<uint8_t>
serializeFriProof(const FriProof &proof)
{
    ByteWriter w;
    writeFriProof(w, proof);
    return w.bytes();
}

std::optional<FriProof>
deserializeFriProof(const std::vector<uint8_t> &bytes)
{
    ByteReader r(bytes);
    auto proof = readFriProof(r);
    if (!proof || !r.exhausted())
        return std::nullopt;
    return proof;
}

void
writeAirProof(ByteWriter &w, const AirProof &proof)
{
    w.writeU64(proof.logTrace);
    for (const auto &b : proof.boundaries)
        w.writeGoldilocks(b.value);
    for (const auto &f : proof.columnFris)
        writeFriProof(w, f);
    writeFriProof(w, proof.quotientFri);
    writeFriProof(w, proof.boundaryFri);
    w.writeU64(proof.queries.size());
    for (const auto &q : proof.queries) {
        for (const auto &v : q.cur)
            w.writeGoldilocks(v);
        for (const auto &v : q.next)
            w.writeGoldilocks(v);
        w.writeGoldilocks(q.quotient);
        w.writeGoldilocks(q.boundary);
        for (const auto &p : q.curPaths)
            writeMerklePath(w, p);
        for (const auto &p : q.nextPaths)
            writeMerklePath(w, p);
        writeMerklePath(w, q.quotientPath);
        writeMerklePath(w, q.boundaryPath);
    }
}

std::optional<AirProof>
readAirProof(ByteReader &r, const Air &air)
{
    AirProof proof;
    auto log_trace = r.readU64();
    if (!log_trace || *log_trace > 40)
        return std::nullopt;
    proof.logTrace = static_cast<unsigned>(*log_trace);
    for (const auto &b : air.boundaries) {
        auto v = r.readGoldilocks();
        if (!v)
            return std::nullopt;
        proof.boundaries.push_back({b.column, *v});
    }
    for (unsigned c = 0; c < air.columns; ++c) {
        auto f = readFriProof(r);
        if (!f)
            return std::nullopt;
        proof.columnFris.push_back(std::move(*f));
    }
    auto quotient = readFriProof(r);
    auto boundary = readFriProof(r);
    if (!quotient || !boundary)
        return std::nullopt;
    proof.quotientFri = std::move(*quotient);
    proof.boundaryFri = std::move(*boundary);

    auto nqueries = r.readU64();
    if (!nqueries || *nqueries > 4096)
        return std::nullopt;
    auto value = [&](Goldilocks &out) {
        auto v = r.readGoldilocks();
        if (v)
            out = *v;
        return v.has_value();
    };
    auto path = [&](MerklePath &out) {
        auto p = readMerklePath(r);
        if (p)
            out = std::move(*p);
        return p.has_value();
    };
    for (uint64_t i = 0; i < *nqueries; ++i) {
        AirProof::Query q;
        q.cur.resize(air.columns);
        q.next.resize(air.columns);
        q.curPaths.resize(air.columns);
        q.nextPaths.resize(air.columns);
        bool ok = true;
        for (auto &v : q.cur)
            ok = ok && value(v);
        for (auto &v : q.next)
            ok = ok && value(v);
        ok = ok && value(q.quotient) && value(q.boundary);
        for (auto &p : q.curPaths)
            ok = ok && path(p);
        for (auto &p : q.nextPaths)
            ok = ok && path(p);
        ok = ok && path(q.quotientPath) && path(q.boundaryPath);
        if (!ok)
            return std::nullopt;
        proof.queries.push_back(std::move(q));
    }
    return proof;
}

std::vector<uint8_t>
serializeStarkProof(const StarkProof &proof)
{
    ByteWriter w;
    writeAirProof(w, toAirProof(proof));
    return w.bytes();
}

std::optional<StarkProof>
deserializeStarkProof(const std::vector<uint8_t> &bytes)
{
    ByteReader r(bytes);
    auto proof = readAirProof(r, squareAir(Goldilocks::zero()));
    if (!proof || !r.exhausted())
        return std::nullopt;
    return toStarkProof(std::move(*proof));
}

} // namespace unintt
