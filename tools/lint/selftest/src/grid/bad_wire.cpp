// Seeds the wire-dispatch violation for contract_lint.py --selftest: a plan
// that picks between fp64 and fp32 exchange calls itself. The accessor use
// and this comment's `wire == WirePrecision::kF32` must NOT be flagged.
#include "precision.hpp"

namespace selftest::grid {

struct Plan {
  WirePrecision wire_ = WirePrecision::kF64;

  WirePrecision wire() const { return wire_; }

  int bytes_per_value() const {
    // seeded: the plan decides the wire format instead of mpisim
    return wire_ == WirePrecision::kF32 ? 4 : 8;
  }
};

}  // namespace selftest::grid
