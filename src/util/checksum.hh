/**
 * @file
 * Payload checksums for exchange verification. The resilient exchange
 * paths checksum every chunk before it is sent and after it lands, so
 * in-flight corruption is detected before the data is consumed.
 *
 * The checksum XORs a bijectively mixed value per 64-bit word
 * (position-salted so reordered words do not cancel). Because the mixer
 * is a bijection, changing any single word — in particular flipping any
 * single bit — always changes that word's contribution and therefore
 * the checksum: single-bit-flip detection is guaranteed, not
 * probabilistic. Multi-word corruptions are caught with probability
 * 1 - 2^-64 per independent event.
 */

#ifndef UNINTT_UTIL_CHECKSUM_HH
#define UNINTT_UTIL_CHECKSUM_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/logging.hh"

namespace unintt {

/** splitmix64 finalizer: a cheap bijective 64-bit mixer. */
inline uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The salt of checksumBytes' position mixing. */
inline constexpr uint64_t kChecksumSalt = 0x9e3779b97f4a7c15ULL;

/**
 * The word terms of checksumBytes: the mixed words of @p bytes bytes at
 * @p data, XORed, the first word at word index @p first_word of the
 * whole payload (1-based). A short last word is zero-padded.
 */
inline uint64_t
checksumWords(const void *data, size_t bytes, uint64_t first_word)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = 0;
    size_t i = 0;
    uint64_t word_index = first_word;
    for (; i + 8 <= bytes; i += 8, ++word_index) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        h ^= mix64(w + kChecksumSalt * word_index);
    }
    if (i < bytes) {
        uint64_t w = 0;
        std::memcpy(&w, p + i, bytes - i);
        h ^= mix64(w + kChecksumSalt * word_index);
    }
    return h;
}

/** Checksum @p bytes bytes at @p data (position-mixed XOR; see above). */
inline uint64_t
checksumBytes(const void *data, size_t bytes)
{
    return kChecksumSalt ^ static_cast<uint64_t>(bytes) ^
           checksumWords(data, bytes, 1);
}

/**
 * checksumBytes of the concatenation of @p shards (contiguous ranges
 * with data() and size()), hashed in place: each shard's words carry
 * on the word index where the previous shard's ended, so the payload
 * is never gathered. Every shard but the last holds whole words.
 */
template <typename Shards>
uint64_t
checksumShards(const Shards &shards)
{
    size_t bytes = 0;
    for (const auto &s : shards)
        bytes += s.size() * sizeof(*s.data());
    uint64_t h = kChecksumSalt ^ static_cast<uint64_t>(bytes);
    uint64_t word = 1;
    size_t done = 0;
    for (const auto &s : shards) {
        UNINTT_ASSERT(done % 8 == 0, "checksum shard splits a word");
        const size_t b = s.size() * sizeof(*s.data());
        h ^= checksumWords(s.data(), b, word);
        word += b / 8;
        done += b;
    }
    return h;
}

} // namespace unintt

#endif // UNINTT_UTIL_CHECKSUM_HH
