#include "trace.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / v.size();
}

int
Tracer::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = wallNow();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[id].end = wallNow();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name && s.end > 0)
            out.push_back(s.end - s.start);
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    f << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[96];
        std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                      (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
        f << (i ? "," : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
          << ",\"args\":{\"parent\":" << s.parent << "}}";
    }
    f << "]}\n";
    return static_cast<bool>(f);
}

namespace {

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Json::num(const std::string &key, double v)
{
    items_.emplace_back(key, number(v));
}

void
Json::integer(const std::string &key, uint64_t v)
{
    items_.emplace_back(key, std::to_string(v));
}

void
Json::boolean(const std::string &key, bool v)
{
    items_.emplace_back(key, v ? "true" : "false");
}

void
Json::str(const std::string &key, const std::string &v)
{
    items_.emplace_back(key, quote(v));
}

void
Json::nums(const std::string &key, const std::vector<double> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + number(v[i]);
    items_.emplace_back(key, s + "]");
}

void
Json::strs(const std::string &key, const std::vector<std::string> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + quote(v[i]);
    items_.emplace_back(key, s + "]");
}

void
Json::obj(const std::string &key, const Json &v)
{
    items_.emplace_back(key, v.dump());
}

void
Json::numMap(const std::string &key, const std::map<std::string, double> &m)
{
    Json o;
    for (const auto &kv : m)
        o.num(kv.first, kv.second);
    obj(key, o);
}

void
Json::strMap(const std::string &key,
             const std::map<std::string, std::string> &m)
{
    Json o;
    for (const auto &kv : m)
        o.str(kv.first, kv.second);
    obj(key, o);
}

std::string
Json::dump() const
{
    std::string s = "{";
    for (size_t i = 0; i < items_.size(); ++i)
        s += (i ? "," : "") + quote(items_[i].first) + ":" +
             items_[i].second;
    return s + "}";
}

} // namespace perfbench
