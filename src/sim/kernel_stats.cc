#include "sim/kernel_stats.hh"

namespace unintt {

KernelStats &
KernelStats::operator+=(const KernelStats &o)
{
    fieldMuls += o.fieldMuls;
    fieldAdds += o.fieldAdds;
    butterflies += o.butterflies;
    globalReadBytes += o.globalReadBytes;
    globalWriteBytes += o.globalWriteBytes;
    smemBytes += o.smemBytes;
    smemBankConflicts += o.smemBankConflicts;
    shuffles += o.shuffles;
    syncs += o.syncs;
    kernelLaunches += o.kernelLaunches;
    return *this;
}

bool
FaultStats::any() const
{
    return exchanges || transientRetries || corruptionsDetected ||
           stragglerEvents || devicesLost || degradedReplans ||
           spotChecks || spotCheckFailures || checksummedBytes ||
           watchdogTimeouts || devicesExcluded || abftChecks ||
           abftCatches || tilesRecomputed || abftEscalations;
}

FaultStats &
FaultStats::operator+=(const FaultStats &o)
{
    exchanges += o.exchanges;
    transientRetries += o.transientRetries;
    corruptionsDetected += o.corruptionsDetected;
    stragglerEvents += o.stragglerEvents;
    devicesLost += o.devicesLost;
    degradedReplans += o.degradedReplans;
    spotChecks += o.spotChecks;
    spotCheckFailures += o.spotCheckFailures;
    checksummedBytes += o.checksummedBytes;
    watchdogTimeouts += o.watchdogTimeouts;
    devicesExcluded += o.devicesExcluded;
    abftChecks += o.abftChecks;
    abftCatches += o.abftCatches;
    tilesRecomputed += o.tilesRecomputed;
    abftEscalations += o.abftEscalations;
    return *this;
}

} // namespace unintt
