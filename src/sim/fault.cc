#include "sim/fault.hh"

#include "util/checksum.hh"
#include "util/logging.hh"

namespace unintt {

double
RetryPolicy::backoffSeconds(unsigned attempt, uint64_t salt) const
{
    const double capped = backoffSeconds(attempt);
    if (jitterFraction <= 0.0)
        return capped;
    // Deterministic uniform draw in [0, 1) from (salt, attempt): the
    // same job replays the same jitter, different jobs decorrelate.
    const uint64_t h = mix64(salt ^ mix64(attempt + 1));
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53; // [0, 1)
    return capped * (1.0 - jitterFraction / 2.0 + jitterFraction * u);
}

FaultInjector::FaultInjector(FaultModel model)
    : model_(std::move(model)),
      rng_(model_.seed),
      dropoutFired_(model_.dropouts.size(), false)
{
    UNINTT_ASSERT(model_.transientExchangeRate <= 1.0 &&
                      model_.bitFlipRate <= 1.0 &&
                      model_.computeBitFlipRate <= 1.0 &&
                      model_.stragglerRate <= 1.0,
                  "fault rates are probabilities");
}

ExchangeOutcome
FaultInjector::nextExchange(unsigned max_attempts)
{
    ExchangeOutcome out;
    const uint64_t index = exchangeIndex_++;
    injected_.exchanges++;

    // A scheduled dropout preempts the exchange entirely.
    for (size_t d = 0; d < model_.dropouts.size(); ++d) {
        if (!dropoutFired_[d] && model_.dropouts[d].atExchange == index) {
            dropoutFired_[d] = true;
            injected_.dropouts++;
            out.lostGpu = static_cast<int>(model_.dropouts[d].gpu);
            return out;
        }
    }

    // Transient transit failures: independent per attempt, over the
    // initial transmission plus max_attempts retransmissions.
    const unsigned attempts = max_attempts + 1;
    while (out.transientFailures < attempts &&
           rng_.uniform() < model_.transientExchangeRate)
        out.transientFailures++;
    injected_.transients += out.transientFailures;
    if (out.transientFailures == attempts) {
        out.exhausted = true;
        return out;
    }

    if (rng_.uniform() < model_.bitFlipRate) {
        out.corrupted = true;
        out.corruptBit = rng_.next();
        injected_.exchangeCorruptions++;
    }

    if (rng_.uniform() < model_.stragglerRate) {
        out.stragglerFactor = model_.stragglerSlowdown;
        injected_.stragglers++;
    }
    return out;
}

bool
FaultInjector::retransmitCorrupted()
{
    if (rng_.uniform() < model_.bitFlipRate) {
        injected_.retransmitCorruptions++;
        return true;
    }
    return false;
}

ComputeFaultOutcome
FaultInjector::computeFault(unsigned device, uint64_t step,
                            unsigned attempt)
{
    ComputeFaultOutcome out;
    if (model_.computeBitFlipRate <= 0.0)
        return out;
    // Stateless per the seed-derivation contract: a chained hash of
    // (seed, device, step, attempt), domain-separated from every other
    // consumer of the seed so compute draws can never shadow exchange
    // draws (which use the sequential xoshiro stream) or retry jitter
    // (which salts by job id).
    uint64_t h = mix64(model_.seed ^ 0xabf7c0de5dc00001ULL);
    h = mix64(h ^ mix64(device + 1));
    h = mix64(h ^ mix64(step + 1));
    h = mix64(h ^ mix64(attempt + 1));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < model_.computeBitFlipRate) {
        out.corrupted = true;
        out.corruptWord = mix64(h ^ 0x9e3779b97f4a7c15ULL);
        out.corruptBit = mix64(out.corruptWord);
        injected_.computeCorruptions++;
    }
    return out;
}

void
FaultInjector::reset()
{
    rng_.reseed(model_.seed);
    exchangeIndex_ = 0;
    dropoutFired_.assign(model_.dropouts.size(), false);
    injected_ = InjectedFaults{};
}

} // namespace unintt
