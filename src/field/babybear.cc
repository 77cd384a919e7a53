#include "field/babybear.hh"

#include "field/field_traits.hh"
#include "util/logging.hh"

namespace unintt {

BabyBear
BabyBear::pow(uint64_t exp) const
{
    BabyBear base = *this;
    BabyBear acc = one();
    while (exp) {
        if (exp & 1)
            acc *= base;
        base *= base;
        exp >>= 1;
    }
    return acc;
}

BabyBear
BabyBear::inverse() const
{
    UNINTT_ASSERT(!isZero(), "inverse of zero");
    return pow(kModulus - 2);
}

BabyBear
BabyBear::rootOfUnity(unsigned log_n)
{
    requireTwoAdicSize<BabyBear>(log_n);
    BabyBear root = multiplicativeGenerator().pow(
        (static_cast<uint64_t>(kModulus) - 1) >> kTwoAdicity);
    for (unsigned i = log_n; i < kTwoAdicity; ++i)
        root *= root;
    return root;
}

} // namespace unintt
