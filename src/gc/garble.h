// Garbling schemes. The production scheme is half-gates (Zahur, Rosulek,
// Evans — EUROCRYPT'15): free XOR, 2 ciphertexts per non-XOR gate. Classic
// four-row and GRR3 (row-reduction, Naor-Pinkas-Sumner) schemes are provided
// for the ablation benchmarks; all three share the fixed-key pi-hash.
//
// Any non-affine 2-input gate is garbled at AND cost through its AND-core
// decomposition  f(a,b) = gamma ^ ((a^alpha) & (b^beta)) : the garbler offsets
// the false input labels by alpha*R / beta*R and the false output label by
// gamma*R; the evaluator is oblivious to the polarities.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/block.h"
#include "crypto/prf.h"
#include "crypto/rng.h"
#include "netlist/gate.h"

namespace arm2gc::gc {

using crypto::Block;

enum class Scheme : std::uint8_t { HalfGates, Grr3, Classic4 };

/// Ciphertexts for one garbled gate. Half-gates uses 2; GRR3 uses 3;
/// classic uses 4. `count` says how many are meaningful.
struct GarbledTable {
  std::array<Block, 4> rows{};
  std::uint8_t count = 0;
};

/// Number of ciphertext blocks per non-XOR gate under a scheme.
[[nodiscard]] constexpr std::size_t blocks_per_gate(Scheme s) {
  switch (s) {
    case Scheme::HalfGates: return 2;
    case Scheme::Grr3: return 3;
    case Scheme::Classic4: return 4;
  }
  return 2;
}

/// Garbler-side state: the global free-XOR offset R (lsb forced to 1 for
/// point-and-permute) and the label generator.
class Garbler {
 public:
  explicit Garbler(Block seed, Scheme scheme = Scheme::HalfGates);

  [[nodiscard]] Block R() const { return r_; }
  [[nodiscard]] Scheme scheme() const { return scheme_; }

  /// Fresh false label for a new wire (input or GRR-independent output).
  Block fresh_label();

  /// Garbles one non-affine gate. `a0`, `b0` are the inputs' false labels;
  /// `core` comes from netlist::tt_and_core. Returns the output false label
  /// and fills `table`. Consumes two hash tweaks (kept in lock-step with the
  /// evaluator via the shared gate counter).
  Block garble(Block a0, Block b0, netlist::AndCore core, GarbledTable& table);

  /// Garbling at an explicit tweak (uses `tweak` and `tweak + 1`):
  /// bit-identical to garble() fed the same tweaks. `classic_fresh`
  /// supplies the fresh output label Classic4 needs (derived_label; ignored
  /// by the row-reduced schemes). The caller advances the shared cursors
  /// past the gate via advance().
  Block garble_at(Block a0, Block b0, netlist::AndCore core, std::uint64_t tweak,
                  Block classic_fresh, GarbledTable& table) const;

  /// Label addressed by (domain, ordinal) from the session seed, so a
  /// Classic4 output label depends on the gate, not on a stream position.
  /// Disjoint from the fresh_label() stream by construction
  /// (crypto::CtrRng::derive).
  [[nodiscard]] Block derived_label(std::uint64_t domain, std::uint64_t ordinal) const {
    return rng_.derive(domain, ordinal);
  }

  /// Advances the gate counter and tweak cursor past `gates` garbled gates
  /// (2 tweaks each) handled out-of-band through garble_at().
  void advance(std::uint64_t gates) {
    gate_counter_ += gates;
    tweak_ += 2 * gates;
  }

  /// The next tweak garble() would consume.
  [[nodiscard]] std::uint64_t tweak_cursor() const { return tweak_; }

  [[nodiscard]] std::uint64_t gates_garbled() const { return gate_counter_; }

 private:
  Block half_gates(Block a0, Block b0, std::uint64_t j0, GarbledTable& table) const;
  Block classic(Block a0, Block b0, std::uint64_t j0, Block w0_fresh, GarbledTable& table,
                bool grr3) const;

  crypto::PiHash hash_;
  crypto::CtrRng rng_;
  Block r_;
  Scheme scheme_;
  std::uint64_t gate_counter_ = 0;
  std::uint64_t tweak_ = 0;
};

/// Evaluator-side state; mirrors the garbler's tweak sequence.
class Evaluator {
 public:
  explicit Evaluator(Scheme scheme = Scheme::HalfGates) : scheme_(scheme) {}

  /// Evaluates one garbled gate given the active input labels.
  Block eval(Block a, Block b, const GarbledTable& table);

  [[nodiscard]] std::uint64_t gates_evaluated() const { return gate_counter_; }

 private:
  Block eval_half_gates(Block a, Block b, std::uint64_t j0, const GarbledTable& table) const;
  Block eval_classic(Block a, Block b, std::uint64_t j0, const GarbledTable& table,
                     bool grr3) const;

  crypto::PiHash hash_;
  Scheme scheme_;
  std::uint64_t gate_counter_ = 0;
  std::uint64_t tweak_ = 0;
};

}  // namespace arm2gc::gc
