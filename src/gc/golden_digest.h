// Golden-digest fixture: garbles a fixed, deterministic gate sequence and
// digests the resulting half-gates table bytes. Shared by tests/gc_test.cpp
// (which pins the expected hex values) and tools/golden_capture.cpp (which
// regenerates them) so the two computations cannot drift apart.
#pragma once

#include <string>

#include "crypto/block.h"
#include "gc/garble.h"
#include "netlist/gate.h"

namespace arm2gc::gc {

inline std::string golden_table_digest() {
  const netlist::TruthTable non_affine[] = {
      netlist::kTtAnd,      netlist::kTtNand,     netlist::kTtOr,
      netlist::kTtNor,      netlist::kTtAndANotB, netlist::kTtNotAAndB,
      netlist::kTtOrANotB,  netlist::kTtOrNotAB,
  };
  // Simple strong-enough mixing: rotate-xor with gf_double.
  const auto mix = [](crypto::Block acc, crypto::Block v) {
    return acc.gf_double() ^ v;
  };
  Garbler g(crypto::block_from_u64(0xa26c0de));
  crypto::Block a0 = g.fresh_label();
  crypto::Block b0 = g.fresh_label();
  crypto::Block acc{};
  for (int i = 0; i < 64; ++i) {
    GarbledTable t;
    const crypto::Block out =
        g.garble(a0, b0, netlist::tt_and_core(non_affine[i % 8]), t);
    for (const crypto::Block& row : t.rows) acc = mix(acc, row);
    acc = mix(acc, out);
    // Chain labels so later gates depend on earlier outputs.
    a0 = b0;
    b0 = out;
  }
  return acc.hex();
}

}  // namespace arm2gc::gc
