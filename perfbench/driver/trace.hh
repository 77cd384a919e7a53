/**
 * @file
 * The benchmark's own instrumentation: an in-memory span recorder, host
 * clocks, and a minimal JSON writer for perfbench_driver's result document.
 *
 * Spans are recorded only around calls the benchmark makes into the
 * library's public functions (engine, prover, service); nothing inside
 * the library is instrumented. A disabled tracer records nothing, so the
 * untraced run pays one branch per call site.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host seconds (steady_clock). */
double wallNow();

/** CPU seconds (user + system) the process has consumed so far. */
double cpuNow();

/** Peak resident set size of the process, MiB. */
double peakRssMib();

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/** Arithmetic mean of @p v (0 for an empty sample). */
double mean(const std::vector<double> &v);

/** One recorded span: [start, end) host seconds, parent index or -1. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
};

/** In-memory span recorder with a stack for parent links. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(const std::string &name);

    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    /** Durations (seconds) of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Every recorded span, in begin order. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as a Chrome trace-event file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class SpanGuard
{
  public:
    SpanGuard(Tracer &t, const std::string &name)
        : tracer_(t), id_(t.begin(name))
    {
    }
    ~SpanGuard() { tracer_.end(id_); }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** Ordered JSON object writer (numbers, strings, arrays, objects). */
class Json
{
  public:
    void num(const std::string &key, double v);
    void integer(const std::string &key, uint64_t v);
    void boolean(const std::string &key, bool v);
    void str(const std::string &key, const std::string &v);
    void nums(const std::string &key, const std::vector<double> &v);
    void strs(const std::string &key, const std::vector<std::string> &v);
    void obj(const std::string &key, const Json &v);
    void numMap(const std::string &key,
                const std::map<std::string, double> &m);
    void strMap(const std::string &key,
                const std::map<std::string, std::string> &m);

    std::string dump() const;

  private:
    std::vector<std::pair<std::string, std::string>> items_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
