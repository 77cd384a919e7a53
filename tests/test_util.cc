/**
 * @file
 * Unit tests for the util substrate: bit operations, statistics, table
 * rendering, RNG determinism, the CLI parser and payload checksums.
 */

#include <gtest/gtest.h>

#include "util/bitops.hh"
#include "util/checksum.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace unintt {
namespace {

TEST(Bitops, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ULL << 40));
    EXPECT_FALSE(isPow2((1ULL << 40) + 1));
}

TEST(Bitops, Log2)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Exact(1ULL << 52), 52u);
}

TEST(Bitops, NextPow2)
{
    EXPECT_EQ(nextPow2(1), 1u);
    EXPECT_EQ(nextPow2(3), 4u);
    EXPECT_EQ(nextPow2(4), 4u);
    EXPECT_EQ(nextPow2(1000), 1024u);
}

TEST(Bitops, BitReverseKnownValues)
{
    EXPECT_EQ(bitReverse(0b001, 3), 0b100u);
    EXPECT_EQ(bitReverse(0b011, 3), 0b110u);
    EXPECT_EQ(bitReverse(0b101, 3), 0b101u);
    EXPECT_EQ(bitReverse(1, 10), 512u);
}

TEST(Bitops, BitReverseIsInvolution)
{
    for (unsigned bits = 1; bits <= 16; ++bits)
        for (uint64_t x = 0; x < (1ULL << bits); x += 13)
            EXPECT_EQ(bitReverse(bitReverse(x, bits), bits), x);
}

TEST(Bitops, BitReversePermuteRoundTrips)
{
    std::vector<int> v(64);
    for (int i = 0; i < 64; ++i)
        v[i] = i;
    auto orig = v;
    bitReversePermute(v.data(), v.size());
    EXPECT_NE(v, orig);
    bitReversePermute(v.data(), v.size());
    EXPECT_EQ(v, orig);
}

TEST(Stats, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4.0);
    EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2, 2, 2}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, Formatters)
{
    EXPECT_EQ(formatBytes(512), "512.00 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatSeconds(1.5e-3), "1.50 ms");
    EXPECT_EQ(formatRate(2.5e9), "2.50 Gelem/s");
}

TEST(Stats, PercentileNearestRank)
{
    EXPECT_DOUBLE_EQ(percentile({}, 99), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
    // Nearest rank returns an observed sample, never an interpolation.
    std::vector<double> xs = {40, 10, 30, 20, 50};
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 30.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 95), 50.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 50.0);
    // With fewer than 101 samples the p99 IS the maximum — SLO gates
    // built on it need enough jobs to see past a single outlier.
    std::vector<double> hundred(100);
    for (size_t i = 0; i < hundred.size(); ++i)
        hundred[i] = static_cast<double>(i + 1);
    EXPECT_DOUBLE_EQ(percentile(hundred, 99), 99.0);
    hundred.push_back(101.0);
    EXPECT_DOUBLE_EQ(percentile(hundred, 99), 100.0);
}

TEST(Logging, SinkCapturesTaggedLines)
{
    Logger &log = Logger::instance();
    const LogLevel old_level = log.level();
    log.setLevel(LogLevel::Inform);
    std::vector<std::string> lines;
    log.setSink([&](const std::string &line) { lines.push_back(line); });

    inform("untagged %d", 1);
    {
        ScopedLogTag job("job42");
        inform("tagged %d", 2);
        {
            ScopedLogTag tenant("tenant7");
            warn("inner %d", 3);
        }
        // The outer tag is restored once the inner scope ends.
        EXPECT_EQ(ScopedLogTag::current(), "job42");
        debugLog("suppressed at Inform level");
    }

    log.setSink({});
    log.setLevel(old_level);

    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "info: untagged 1");
    EXPECT_EQ(lines[1], "info [job42]: tagged 2");
    EXPECT_EQ(lines[2], "warn [tenant7]: inner 3");
    EXPECT_EQ(ScopedLogTag::current(), "");
}

TEST(Logging, LevelGatesEmission)
{
    Logger &log = Logger::instance();
    const LogLevel old_level = log.level();
    unsigned count = 0;
    log.setSink([&](const std::string &) { ++count; });

    log.setLevel(LogLevel::Quiet);
    inform("dropped");
    warn("dropped");
    EXPECT_EQ(count, 0u);

    log.setLevel(LogLevel::Warn);
    inform("dropped");
    warn("kept");
    EXPECT_EQ(count, 1u);

    log.setLevel(LogLevel::Debug);
    debugLog("kept");
    EXPECT_EQ(count, 2u);

    log.setSink({});
    log.setLevel(old_level);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"n", "value"});
    t.addRow({"1", "short"});
    t.addRow({"1024", "x"});
    std::string out = t.toString();
    EXPECT_NE(out.find("| n    | value |"), std::string::npos);
    EXPECT_NE(out.find("| 1024 | x     |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtI(1048576), "1,048,576");
    EXPECT_EQ(fmtI(7), "7");
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtX(4.26), "4.26x");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Cli, ParsesAllKinds)
{
    CliParser cli("test");
    cli.addInt("size", 10, "transform size");
    cli.addString("field", "goldilocks", "field name");
    cli.addBool("verify", false, "check results");

    const char *argv[] = {"prog", "--size=32", "--field", "babybear",
                          "--verify"};
    cli.parse(5, const_cast<char **>(argv));
    EXPECT_EQ(cli.getInt("size"), 32);
    EXPECT_EQ(cli.getString("field"), "babybear");
    EXPECT_TRUE(cli.getBool("verify"));
}

TEST(Cli, DefaultsSurviveWhenUnset)
{
    CliParser cli("test");
    cli.addInt("size", 10, "transform size");
    const char *argv[] = {"prog"};
    cli.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(cli.getInt("size"), 10);
}

TEST(Checksum, ShardsHashInPlaceLikeTheGatheredPayload)
{
    // A payload split into 1, 2 and 4 contiguous shards, the way a
    // DistributedVector shards it over GPUs: hashing the shards in
    // place must equal hashing the gathered payload.
    Rng rng(2718);
    std::vector<uint64_t> payload(1000);
    for (auto &w : payload)
        w = rng.next();
    const uint64_t want =
        checksumBytes(payload.data(), payload.size() * sizeof(uint64_t));
    for (size_t count : {1, 2, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(count));
        std::vector<std::vector<uint64_t>> shards(count);
        const size_t per = payload.size() / count;
        for (size_t k = 0; k < count; ++k)
            shards[k].assign(payload.begin() + k * per,
                             payload.begin() + (k + 1) * per);
        EXPECT_EQ(checksumShards(shards), want);
        shards.back().back() ^= 1; // any flipped bit shows
        EXPECT_NE(checksumShards(shards), want);
    }
    // Only the last shard may end inside a word.
    const auto *bytes = reinterpret_cast<const unsigned char *>(
        payload.data());
    const std::vector<std::vector<unsigned char>> ragged{
        {bytes, bytes + 16}, {bytes + 16, bytes + 24},
        {bytes + 24, bytes + 29}};
    EXPECT_EQ(checksumShards(ragged), checksumBytes(bytes, 29));
}

} // namespace
} // namespace unintt
