#include "core/plan.h"
namespace fix::core {
CyclePlan classify(crypto::Block seed) {
  CyclePlan p;
  p.emitted = static_cast<unsigned>(seed.lo & 3u);
  return p;
}
}  // namespace fix::core
