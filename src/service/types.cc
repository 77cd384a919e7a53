#include "service/types.hh"

namespace unintt {

const char *
toString(SlaClass sla)
{
    switch (sla) {
      case SlaClass::Batch:
        return "batch";
      case SlaClass::Standard:
        return "standard";
      case SlaClass::Premium:
        return "premium";
    }
    return "?";
}

} // namespace unintt
