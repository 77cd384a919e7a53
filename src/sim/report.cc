#include "sim/report.hh"

#include <sstream>

#include "util/stats.hh"

namespace unintt {

double
SimReport::addKernelPhase(const std::string &name, const KernelStats &stats,
                          const PerfModel &model)
{
    SimPhase phase;
    phase.name = name;
    phase.kind = SimPhase::Kind::Kernel;
    phase.seconds = model.kernelSeconds(stats);
    phase.kernel = stats;
    phases_.push_back(phase);
    return phase.seconds;
}

void
SimReport::addCommPhase(const std::string &name, double seconds,
                        const CommStats &stats, double hidden_seconds)
{
    SimPhase phase;
    phase.name = name;
    phase.kind = SimPhase::Kind::Comm;
    phase.seconds = seconds;
    phase.hiddenSeconds = hidden_seconds;
    phase.comm = stats;
    phases_.push_back(phase);
}

void
SimReport::tagLastPhase(const char *step, const char *level)
{
    if (phases_.empty())
        return;
    phases_.back().step = step;
    phases_.back().level = level;
}

double
SimReport::totalSeconds() const
{
    double t = 0;
    for (const auto &p : phases_)
        t += p.seconds;
    return t;
}

double
SimReport::kernelSeconds() const
{
    double t = 0;
    for (const auto &p : phases_)
        if (p.kind == SimPhase::Kind::Kernel)
            t += p.seconds;
    return t;
}

double
SimReport::commSeconds() const
{
    double t = 0;
    for (const auto &p : phases_)
        if (p.kind == SimPhase::Kind::Comm)
            t += p.seconds;
    return t;
}

KernelStats
SimReport::totalKernelStats() const
{
    KernelStats total;
    for (const auto &p : phases_)
        if (p.kind == SimPhase::Kind::Kernel)
            total += p.kernel;
    return total;
}

CommStats
SimReport::totalCommStats() const
{
    CommStats total;
    for (const auto &p : phases_)
        if (p.kind == SimPhase::Kind::Comm)
            total += p.comm;
    return total;
}

bool
ServiceCounters::any() const
{
    return submitted || admitted || shed || quotaRejected || completed ||
           failed || retried || degraded || deadlineMissed || coalesced;
}

ServiceCounters &
ServiceCounters::operator+=(const ServiceCounters &o)
{
    submitted += o.submitted;
    admitted += o.admitted;
    shed += o.shed;
    quotaRejected += o.quotaRejected;
    completed += o.completed;
    failed += o.failed;
    retried += o.retried;
    degraded += o.degraded;
    deadlineMissed += o.deadlineMissed;
    coalesced += o.coalesced;
    return *this;
}

void
SimReport::addServiceCounters(const std::string &tenant,
                              const ServiceCounters &c)
{
    for (auto &row : service_) {
        if (row.first == tenant) {
            row.second += c;
            return;
        }
    }
    service_.emplace_back(tenant, c);
}

void
SimReport::append(const SimReport &other)
{
    phases_.insert(phases_.end(), other.phases_.begin(),
                   other.phases_.end());
    setPeakDeviceBytes(other.peakDeviceBytes());
    faults_ += other.faults_;
    hostExec_ += other.hostExec_;
    for (const auto &row : other.service_)
        addServiceCounters(row.first, row.second);
}

std::string
SimReport::toString() const
{
    std::ostringstream os;
    for (const auto &p : phases_) {
        os << (p.kind == SimPhase::Kind::Kernel ? "[kernel] " : "[comm]   ")
           << p.name << ": " << formatSeconds(p.seconds);
        if (p.hiddenSeconds > 0)
            os << " (+" << formatSeconds(p.hiddenSeconds) << " hidden)";
        os << "\n";
    }
    os << "total: " << formatSeconds(totalSeconds())
       << " (kernel " << formatSeconds(kernelSeconds()) << ", comm "
       << formatSeconds(commSeconds()) << ")\n";
    if (hostExec_.any()) {
        os << "host: " << hostExec_.hostThreads << " thread"
           << (hostExec_.hostThreads == 1 ? "" : "s") << ", plan cache "
           << hostExec_.planCacheHits << " hit/"
           << hostExec_.planCacheMisses << " miss, twiddle cache "
           << hostExec_.twiddleCacheHits << " hit/"
           << hostExec_.twiddleCacheMisses << " miss, twiddle slabs "
           << hostExec_.twiddleSlabHits << " hit/"
           << hostExec_.twiddleSlabMisses << " miss, schedule cache "
           << hostExec_.scheduleCacheHits << " hit/"
           << hostExec_.scheduleCacheMisses << " miss, fused groups "
           << hostExec_.fusedGroups;
        if (hostExec_.overlapWaves || hostExec_.exchangeChunks)
            os << ", overlap " << hostExec_.overlapWaves << " wave"
               << (hostExec_.overlapWaves == 1 ? "" : "s") << "/"
               << hostExec_.exchangeChunks << " exchange chunks";
        if (!hostExec_.isaPath.empty())
            os << ", isa " << hostExec_.isaPath << " ("
               << hostExec_.isaLanes << " lane"
               << (hostExec_.isaLanes == 1 ? "" : "s") << ", "
               << hostExec_.isaDispatches << " dispatches)";
        os << "\n";
    }
    if (faults_.any()) {
        os << "faults: " << faults_.transientRetries << " retries, "
           << faults_.corruptionsDetected << " corruptions detected, "
           << faults_.stragglerEvents << " stragglers ("
           << faults_.watchdogTimeouts << " watchdog timeouts), "
           << faults_.devicesLost << " devices lost ("
           << faults_.degradedReplans << " degraded re-plans, "
           << faults_.devicesExcluded << " health-excluded), "
           << faults_.spotChecks << " spot checks ("
           << faults_.spotCheckFailures << " failed)\n";
        if (faults_.abftChecks)
            os << "abft: " << faults_.abftChecks << " checks, "
               << faults_.abftCatches << " catches, "
               << faults_.tilesRecomputed << " tiles recomputed, "
               << faults_.abftEscalations << " escalations\n";
    }
    for (const auto &row : service_) {
        if (!row.second.any())
            continue;
        const ServiceCounters &c = row.second;
        os << "service";
        if (!row.first.empty())
            os << "[" << row.first << "]";
        os << ": " << c.submitted << " submitted, " << c.admitted
           << " admitted (" << c.shed << " shed, " << c.quotaRejected
           << " quota-rejected), " << c.completed << " completed, "
           << c.failed << " failed, " << c.retried << " retried, "
           << c.degraded << " degraded, " << c.deadlineMissed
           << " deadline-missed, " << c.coalesced << " coalesced\n";
    }
    return os.str();
}

} // namespace unintt
