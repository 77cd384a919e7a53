/**
 * @file
 * Summary helpers (mean, percentile, geometric mean) and human-readable
 * formatting used by the simulator and the benchmark harness.
 */

#ifndef UNINTT_UTIL_STATS_HH
#define UNINTT_UTIL_STATS_HH

#include <string>
#include <vector>

namespace unintt {

/** Arithmetic mean of @p xs; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

/**
 * The @p p-th percentile (0..100) of @p xs by the nearest-rank method;
 * 0 for an empty vector. Used for the service latency SLOs (p50 / p95 /
 * p99); nearest-rank keeps the result an actually observed latency.
 */
double percentile(std::vector<double> xs, double p);

/** Geometric mean of @p xs; all entries must be positive. */
double geomean(const std::vector<double> &xs);

/** Human-readable byte count ("1.50 GiB"). */
std::string formatBytes(double bytes);

/** Human-readable element-per-second rate ("3.2 Gelem/s"). */
std::string formatRate(double per_second);

/** Human-readable duration from seconds ("12.3 ms"). */
std::string formatSeconds(double seconds);

} // namespace unintt

#endif // UNINTT_UTIL_STATS_HH
