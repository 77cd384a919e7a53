#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace unintt {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    UNINTT_ASSERT(p >= 0.0 && p <= 100.0,
                  "percentile rank must be in [0, 100]");
    std::sort(xs.begin(), xs.end());
    // Nearest rank: the smallest value with at least p% of the sample
    // at or below it.
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(xs.size()));
    size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    if (idx >= xs.size())
        idx = xs.size() - 1;
    return xs[idx];
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        UNINTT_ASSERT(x > 0.0, "geomean requires positive inputs");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

namespace {

std::string
formatWithUnits(double value, const char *const *units, int nunits,
                double step)
{
    int u = 0;
    while (value >= step && u + 1 < nunits) {
        value /= step;
        ++u;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, units[u]);
    return buf;
}

} // namespace

std::string
formatBytes(double bytes)
{
    static const char *const units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    return formatWithUnits(bytes, units, 5, 1024.0);
}

std::string
formatRate(double per_second)
{
    static const char *const units[] = {"elem/s", "Kelem/s", "Melem/s",
                                        "Gelem/s", "Telem/s"};
    return formatWithUnits(per_second, units, 5, 1000.0);
}

std::string
formatSeconds(double seconds)
{
    static const char *const units[] = {"ns", "us", "ms", "s"};
    double ns = seconds * 1e9;
    return formatWithUnits(ns, units, 4, 1000.0);
}

} // namespace unintt
