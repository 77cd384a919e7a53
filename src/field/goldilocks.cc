#include "field/goldilocks.hh"

#include "field/field_traits.hh"
#include "util/logging.hh"

namespace unintt {

Goldilocks
Goldilocks::pow(uint64_t exp) const
{
    Goldilocks base = *this;
    Goldilocks acc = one();
    while (exp) {
        if (exp & 1)
            acc *= base;
        base *= base;
        exp >>= 1;
    }
    return acc;
}

Goldilocks
Goldilocks::inverse() const
{
    UNINTT_ASSERT(!isZero(), "inverse of zero");
    // Fermat: a^(p-2) = a^-1.
    return pow(kModulus - 2);
}

Goldilocks
Goldilocks::rootOfUnity(unsigned log_n)
{
    requireTwoAdicSize<Goldilocks>(log_n);
    // g^((p-1) / 2^kTwoAdicity) has exact order 2^kTwoAdicity because g
    // is a nonresidue; squaring walks down to the requested order.
    Goldilocks root =
        multiplicativeGenerator().pow((kModulus - 1) >> kTwoAdicity);
    for (unsigned i = log_n; i < kTwoAdicity; ++i)
        root *= root;
    return root;
}

} // namespace unintt
