#include "unintt/health.hh"

#include "util/logging.hh"

namespace unintt {

DeviceHealthTracker::DeviceHealthTracker(unsigned num_devices,
                                         HealthPolicy policy)
    : policy_(policy), devices_(num_devices)
{
    UNINTT_ASSERT(num_devices > 0, "need at least one device");
    UNINTT_ASSERT(policy_.suspectAfterFaults > 0 &&
                      policy_.quarantineAfterFaults >=
                          policy_.suspectAfterFaults,
                  "fault thresholds must be ordered and positive");
}

DeviceHealth
DeviceHealthTracker::state(unsigned device) const
{
    UNINTT_ASSERT(device < devices_.size(), "device index out of range");
    return devices_[device].state;
}

void
DeviceHealthTracker::quarantine(Device &dev)
{
    dev.state = DeviceHealth::Quarantined;
    dev.quarantineRuns = 0;
    dev.probationRuns = 0;
    dev.cleanRuns = 0;
    quarantineEvents_++;
}

void
DeviceHealthTracker::recordFault(unsigned device)
{
    UNINTT_ASSERT(device < devices_.size(), "device index out of range");
    Device &dev = devices_[device];
    dev.faultedThisRun = true;
    dev.faultEvents++;
    dev.cleanRuns = 0;
    switch (dev.state) {
      case DeviceHealth::Quarantined:
        // Should be excluded from plans, but a fault observed anyway
        // (e.g. during the run that discovered it) restarts the
        // cool-down.
        dev.quarantineRuns = 0;
        return;
      case DeviceHealth::Probation:
        // One strike on probation: straight back to quarantine, and
        // the fault score stays at the quarantine threshold so the
        // next probation is just as fragile.
        quarantine(dev);
        return;
      case DeviceHealth::Healthy:
      case DeviceHealth::Suspect:
        dev.faultScore++;
        if (dev.faultScore >= policy_.quarantineAfterFaults)
            quarantine(dev);
        else if (dev.faultScore >= policy_.suspectAfterFaults)
            dev.state = DeviceHealth::Suspect;
        return;
    }
}

void
DeviceHealthTracker::recordDeviceLost(unsigned device)
{
    UNINTT_ASSERT(device < devices_.size(), "device index out of range");
    Device &dev = devices_[device];
    dev.faultedThisRun = true;
    dev.faultEvents++;
    dev.lost = !policy_.readmitLostDevices;
    dev.faultScore = policy_.quarantineAfterFaults;
    if (dev.state != DeviceHealth::Quarantined)
        quarantine(dev);
    else
        dev.quarantineRuns = 0;
}

void
DeviceHealthTracker::endRun()
{
    runsObserved_++;
    for (auto &dev : devices_) {
        const bool clean = !dev.faultedThisRun;
        dev.faultedThisRun = false;
        switch (dev.state) {
          case DeviceHealth::Healthy:
            break;
          case DeviceHealth::Suspect:
            if (clean && ++dev.cleanRuns >= policy_.suspectDecayRuns) {
                dev.state = DeviceHealth::Healthy;
                dev.faultScore = 0;
                dev.cleanRuns = 0;
            }
            break;
          case DeviceHealth::Quarantined:
            if (dev.lost)
                break; // permanent: the cool-down never elapses
            if (++dev.quarantineRuns >= policy_.probationAfterRuns) {
                dev.state = DeviceHealth::Probation;
                dev.probationRuns = 0;
            }
            break;
          case DeviceHealth::Probation:
            if (clean &&
                ++dev.probationRuns >= policy_.probationCleanRuns) {
                dev.state = DeviceHealth::Healthy;
                dev.faultScore = 0;
                dev.probationRuns = 0;
            }
            break;
        }
    }
}

uint64_t
DeviceHealthTracker::faultEvents(unsigned device) const
{
    UNINTT_ASSERT(device < devices_.size(), "device index out of range");
    return devices_[device].faultEvents;
}

bool
DeviceHealthTracker::isLost(unsigned device) const
{
    UNINTT_ASSERT(device < devices_.size(), "device index out of range");
    return devices_[device].lost;
}

bool
DeviceHealthTracker::usable(unsigned device) const
{
    return state(device) != DeviceHealth::Quarantined;
}

std::vector<unsigned>
DeviceHealthTracker::usableDevices() const
{
    std::vector<unsigned> out;
    for (unsigned d = 0; d < devices_.size(); ++d)
        if (usable(d))
            out.push_back(d);
    return out;
}

unsigned
DeviceHealthTracker::usableCount() const
{
    unsigned n = 0;
    for (unsigned d = 0; d < devices_.size(); ++d)
        if (usable(d))
            ++n;
    return n;
}

unsigned
DeviceHealthTracker::usablePowerOfTwo() const
{
    unsigned n = usableCount();
    unsigned p = 0;
    while ((2u << p) <= n && p + 1 < 32)
        ++p;
    return n == 0 ? 0 : 1u << p;
}

} // namespace unintt
