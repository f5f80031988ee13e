#include "gc/garble.h"

namespace arm2gc::gc {

namespace {
constexpr Block kZero{};

Block maybe(Block b, bool take) { return take ? b : kZero; }
}  // namespace

Garbler::Garbler(Block seed) : rng_(seed) {
  r_ = rng_.next_block();
  r_.lo |= 1u;  // point-and-permute: lsb(R) = 1 so the two labels differ in lsb
}

Block Garbler::fresh_label() { return rng_.next_block(); }

Block Garbler::garble(Block a0, Block b0, netlist::AndCore core, GarbledTable& table) {
  const std::uint64_t j0 = tweak_;
  const std::uint64_t j1 = j0 + 1;
  tweak_ += 2;

  // Fold the gate's polarity into the labels: garble a plain AND over the
  // polarity-adjusted false labels, flip the output for gamma.
  a0 = a0 ^ maybe(r_, core.alpha);
  b0 = b0 ^ maybe(r_, core.beta);
  const bool pa = a0.lsb();
  const bool pb = b0.lsb();

  // The generator and evaluator half-gates need 4 independent hashes; one
  // batched call keeps all of them in the AES pipeline at once.
  const Block in[4] = {a0, a0 ^ r_, b0, b0 ^ r_};
  const std::uint64_t tw[4] = {j0, j0, j1, j1};
  Block h[4];
  hash_.hash4(in, tw, h);

  const Block tg = h[0] ^ h[1] ^ maybe(r_, pb);
  const Block wg0 = h[0] ^ maybe(tg, pa);
  const Block te = h[2] ^ h[3] ^ a0;
  const Block we0 = h[2] ^ maybe(te ^ a0, pb);

  table.rows[0] = tg;
  table.rows[1] = te;
  return wg0 ^ we0 ^ maybe(r_, core.gamma);
}

Block Evaluator::eval(Block a, Block b, const GarbledTable& table) {
  const std::uint64_t j0 = tweak_;
  tweak_ += 2;
  const Block in[2] = {a, b};
  const std::uint64_t tw[2] = {j0, j0 + 1};
  Block h[2];
  hash_.hash2(in, tw, h);
  const Block wg = h[0] ^ maybe(table.rows[0], a.lsb());
  const Block we = h[1] ^ maybe(table.rows[1] ^ a, b.lsb());
  return wg ^ we;
}

}  // namespace arm2gc::gc
