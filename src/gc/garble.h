// Half-gates garbling (Zahur, Rosulek, Evans — EUROCRYPT'15) over the
// fixed-key pi-hash: free XOR, two ciphertexts per non-XOR gate — the cost
// model the paper prices its garbled processor in.
//
// Any non-affine 2-input gate is garbled at AND cost through its AND-core
// decomposition  f(a,b) = gamma ^ ((a^alpha) & (b^beta)) : the garbler offsets
// the false input labels by alpha*R / beta*R and the false output label by
// gamma*R; the evaluator is oblivious to the polarities.
//
// Garbler and evaluator each consume two hash tweaks per gate from their own
// cursor, so they stay in lock-step as long as both see the same gate order.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/block.h"
#include "crypto/prf.h"
#include "crypto/rng.h"
#include "netlist/gate.h"

namespace arm2gc::gc {

using crypto::Block;

/// Half-gates is the only scheme; removed once perfbench/ stops naming it.
enum class Scheme : std::uint8_t { HalfGates };

/// The two half-gates ciphertexts of one garbled gate: the generator half
/// T_G and the evaluator half T_E.
struct GarbledTable {
  std::array<Block, 2> rows{};
};

/// Garbler-side state: the global free-XOR offset R (lsb forced to 1 for
/// point-and-permute) and the label generator.
class Garbler {
 public:
  explicit Garbler(Block seed);

  [[nodiscard]] Block R() const { return r_; }

  /// Fresh false label for a new input wire.
  Block fresh_label();

  /// Garbles one non-affine gate. `a0`, `b0` are the inputs' false labels;
  /// `core` comes from netlist::tt_and_core. Returns the output false label
  /// and fills `table`.
  Block garble(Block a0, Block b0, netlist::AndCore core, GarbledTable& table);

 private:
  crypto::PiHash hash_;
  crypto::CtrRng rng_;
  Block r_;
  std::uint64_t tweak_ = 0;
};

/// Evaluator-side state; mirrors the garbler's tweak sequence.
class Evaluator {
 public:
  /// Evaluates one garbled gate given the active input labels.
  Block eval(Block a, Block b, const GarbledTable& table);

 private:
  crypto::PiHash hash_;
  std::uint64_t tweak_ = 0;
};

}  // namespace arm2gc::gc
