/**
 * @file
 * Shared helpers of the figure/table benches: system construction from
 * flags, functional spot verification, and header printing. Every bench
 * binary reproduces one table or figure of the paper (see DESIGN.md's
 * per-experiment index) and prints its rows through util/table.hh.
 */

#ifndef UNINTT_BENCH_BENCH_UTIL_HH
#define UNINTT_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "field/field_traits.hh"
#include "ntt/radix2.hh"
#include "sim/multi_gpu.hh"
#include "unintt/engine.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace unintt {

/** Print the standard bench banner. */
inline void
benchHeader(const std::string &experiment, const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("%s: %s\n", experiment.c_str(), what.c_str());
    std::printf("==============================================================\n");
}

/**
 * Functional spot check: run the engine at a small size and compare
 * with the host reference, so every bench certifies the simulated
 * algorithm actually computes NTTs before printing numbers.
 */
template <NttField F>
bool
verifyEngine(const MultiGpuSystem &sys, unsigned logN)
{
    Rng rng(12345);
    std::vector<F> x(1ULL << logN);
    for (auto &v : x)
        v = F::fromU64(rng.next());
    auto expect = x;
    nttNoPermute(expect, NttDirection::Forward);

    UniNttEngine<F> engine(sys);
    auto dist = DistributedVector<F>::fromGlobal(x, sys.numGpus);
    engine.forward(dist);
    return dist.toGlobal() == expect;
}

/** Print the verification line (and abort the bench on failure). */
template <NttField F>
void
verifyOrDie(const MultiGpuSystem &sys, unsigned logN = 12)
{
    if (!verifyEngine<F>(sys, logN))
        fatal("functional verification FAILED on %s",
              sys.description().c_str());
    std::printf("functional verification (2^%u on %s): OK\n\n", logN,
                sys.description().c_str());
}

/** Wall-clock seconds of one call of @p fn. */
template <typename Fn>
double
wallSeconds(Fn &&fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Wall-clock @p fn for @p reps repetitions and return the best (not
 * mean) seconds of one run — the standard perf-harness statistic,
 * robust against scheduler noise on a shared machine.
 */
template <typename Fn>
double
bestWallSeconds(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r)
        best = std::min(best, wallSeconds(fn));
    return best;
}

/**
 * Median and interquartile range (q3 - q1) of a timing sample, by the
 * nearest-rank percentiles of util/stats.hh: the statistic of the
 * BENCH_*.json points, which report their spread beside their value.
 */
struct Spread
{
    double median = 0;
    double iqr = 0;

    explicit Spread(const std::vector<double> &xs)
        : median(percentile(xs, 50)),
          iqr(percentile(xs, 75) - percentile(xs, 25))
    {
    }
};

/**
 * Minimal JSON emitter for the machine-readable BENCH_*.json
 * artifacts the perf-trajectory harness diffs across commits. Scalar
 * values only (string/number/bool), two-space indentation, keys
 * emitted in insertion order.
 */
class JsonWriter
{
  public:
    JsonWriter() { os_ << "{"; stack_.push_back(0); }

    JsonWriter &
    field(const std::string &key, const std::string &v)
    {
        keyPrefix(key);
        os_ << '"' << v << '"';
        return *this;
    }

    JsonWriter &
    field(const std::string &key, const char *v)
    {
        return field(key, std::string(v));
    }

    JsonWriter &
    field(const std::string &key, double v)
    {
        keyPrefix(key);
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        os_ << buf;
        return *this;
    }

    JsonWriter &
    field(const std::string &key, uint64_t v)
    {
        keyPrefix(key);
        os_ << v;
        return *this;
    }

    JsonWriter &
    field(const std::string &key, unsigned v)
    {
        return field(key, static_cast<uint64_t>(v));
    }

    JsonWriter &
    field(const std::string &key, bool v)
    {
        keyPrefix(key);
        os_ << (v ? "true" : "false");
        return *this;
    }

    JsonWriter &
    beginArray(const std::string &key)
    {
        keyPrefix(key);
        os_ << "[";
        stack_.push_back(0);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        popLevel();
        os_ << "]";
        return *this;
    }

    JsonWriter &
    beginObject()
    {
        valuePrefix();
        os_ << "{";
        stack_.push_back(0);
        return *this;
    }

    JsonWriter &
    beginObject(const std::string &key)
    {
        keyPrefix(key);
        os_ << "{";
        stack_.push_back(0);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        popLevel();
        os_ << "}";
        return *this;
    }

    /**
     * Close the root object and return the document. Nested arrays
     * and objects must already be closed by the caller.
     */
    std::string
    str()
    {
        popLevel();
        os_ << "}\n";
        return os_.str();
    }

  private:
    void
    indent()
    {
        os_ << "\n";
        for (size_t i = 0; i < stack_.size(); ++i)
            os_ << "  ";
    }

    void
    keyPrefix(const std::string &key)
    {
        if (stack_.back()++)
            os_ << ",";
        indent();
        os_ << '"' << key << "\": ";
    }

    void
    valuePrefix()
    {
        if (stack_.back()++)
            os_ << ",";
        indent();
    }

    void
    popLevel()
    {
        stack_.pop_back();
        os_ << "\n";
        for (size_t i = 0; i < stack_.size(); ++i)
            os_ << "  ";
    }

    std::ostringstream os_;
    std::vector<int> stack_;
};

/** Write @p text to @p path, fatally on I/O failure. */
inline void
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open '%s' for writing", path.c_str());
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace unintt

#endif // UNINTT_BENCH_BENCH_UTIL_HH
