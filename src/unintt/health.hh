/**
 * @file
 * Cross-transform device health tracking.
 *
 * The resilient engine paths (engine.hh) recover a *single* transform
 * from faults, but they forget everything once the run returns: a
 * device that corrupts every other exchange gets retried forever, one
 * transform after another. A long-running proof service needs memory —
 * the classic circuit-breaker pattern applied to devices:
 *
 *   Healthy ──faults──▶ Suspect ──more faults──▶ Quarantined
 *      ▲                   │                         │
 *      │ clean runs        │ clean runs              │ cool-down runs
 *      └───────────────────┘                         ▼
 *      ▲                                         Probation
 *      └──────── clean probation runs ───────────────┘
 *                (any fault re-quarantines)
 *
 * A DeviceHealthTracker is fed fault attributions during every
 * resilient engine run and consulted *before* the next run's plan is
 * made: quarantined devices are excluded up front (the data is
 * resharded onto the largest healthy power-of-two subset), instead of
 * being discovered broken again mid-transform. Permanently lost
 * devices never leave quarantine; merely flaky ones re-enter service
 * through a probation period after a cool-down.
 *
 * The run clock is the unit of decay: endRun() advances every
 * device's clean-run / cool-down counters once per engine run.
 */

#ifndef UNINTT_UNINTT_HEALTH_HH
#define UNINTT_UNINTT_HEALTH_HH

#include <cstdint>
#include <vector>

namespace unintt {

/** Circuit-breaker state of one device. */
enum class DeviceHealth {
    /** Full service. */
    Healthy,
    /** Recent faults; still scheduled, decays back to Healthy. */
    Suspect,
    /** Excluded from plans until the cool-down elapses. */
    Quarantined,
    /** Re-admitted on trial; one fault re-quarantines. */
    Probation,
};

/** Thresholds of the health state machine. */
struct HealthPolicy
{
    /** Accumulated faults that turn Healthy into Suspect. */
    unsigned suspectAfterFaults = 2;
    /** Accumulated faults that turn Suspect into Quarantined. */
    unsigned quarantineAfterFaults = 5;
    /** Clean runs that decay Suspect back to Healthy. */
    unsigned suspectDecayRuns = 4;
    /** Cool-down runs before a quarantined device gets Probation. */
    unsigned probationAfterRuns = 4;
    /** Clean probation runs before full re-admission. */
    unsigned probationCleanRuns = 2;
    /**
     * Let devices that died (recordDeviceLost) re-enter probation.
     * Off by default: a dropout is permanent hardware loss in the
     * simulated machine, unlike a flaky link.
     */
    bool readmitLostDevices = false;
};

/**
 * Per-device circuit breaker over a fixed device set. Not thread-safe;
 * one tracker belongs to one (serial) stream of engine runs.
 */
class DeviceHealthTracker
{
  public:
    explicit DeviceHealthTracker(unsigned num_devices,
                                 HealthPolicy policy = HealthPolicy{});

    /** Devices tracked (the machine's full complement). */
    unsigned numDevices() const
    {
        return static_cast<unsigned>(devices_.size());
    }

    /** The active policy. */
    const HealthPolicy &policy() const { return policy_; }

    /** Current state of device @p device. */
    DeviceHealth state(unsigned device) const;

    /** Attribute one fault (transient, corruption, straggler). */
    void recordFault(unsigned device);

    /** Attribute a permanent dropout; quarantines immediately. */
    void recordDeviceLost(unsigned device);

    /**
     * Advance the run clock: decay Suspect devices that stayed clean,
     * credit Probation devices, and tick Quarantined cool-downs.
     * Call once after every engine run (the engine does this itself
     * when handed a tracker).
     */
    void endRun();

    /** True iff the device may appear in a plan. */
    bool usable(unsigned device) const;

    /** Devices currently eligible for planning, ascending. */
    std::vector<unsigned> usableDevices() const;

    /** Number of usable devices. */
    unsigned usableCount() const;

    /**
     * Largest power-of-two subset the planner can use (plans require
     * power-of-two GPU counts). 0 when every device is quarantined.
     */
    unsigned usablePowerOfTwo() const;

    /**
     * Lifetime fault events attributed to @p device (transients,
     * corruptions, stragglers and dropouts alike). Unlike the decaying
     * fault score driving the state machine, this counter only grows —
     * a service layer reads it after a sub-fleet run to translate the
     * run-local attribution back onto fleet device ids.
     */
    uint64_t faultEvents(unsigned device) const;

    /** True iff @p device was recorded permanently lost. */
    bool isLost(unsigned device) const;

    /** Total Healthy/Suspect/Probation → Quarantined transitions. */
    uint64_t quarantineEvents() const { return quarantineEvents_; }

    /** Completed runs (the decay clock). */
    uint64_t runsObserved() const { return runsObserved_; }

  private:
    struct Device
    {
        DeviceHealth state = DeviceHealth::Healthy;
        /** Accumulated fault score driving promotion. */
        unsigned faultScore = 0;
        /** Consecutive clean runs while Suspect. */
        unsigned cleanRuns = 0;
        /** Runs spent in quarantine (cool-down clock). */
        unsigned quarantineRuns = 0;
        /** Consecutive clean runs while on Probation. */
        unsigned probationRuns = 0;
        /** Died permanently; quarantine never lifts. */
        bool lost = false;
        /** Saw a fault since the last endRun(). */
        bool faultedThisRun = false;
        /** Lifetime attributed fault events (never decays). */
        uint64_t faultEvents = 0;
    };

    void quarantine(Device &dev);

    HealthPolicy policy_;
    std::vector<Device> devices_;
    uint64_t quarantineEvents_ = 0;
    uint64_t runsObserved_ = 0;
};

} // namespace unintt

#endif // UNINTT_UNINTT_HEALTH_HH
