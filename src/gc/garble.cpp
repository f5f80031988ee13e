#include "gc/garble.h"

#include <stdexcept>

namespace arm2gc::gc {

namespace {
constexpr Block kZero{};

Block maybe(Block b, bool take) { return take ? b : kZero; }
}  // namespace

Garbler::Garbler(Block seed, Scheme scheme) : rng_(seed), scheme_(scheme) {
  r_ = rng_.next_block();
  r_.lo |= 1u;  // point-and-permute: lsb(R) = 1 so the two labels differ in lsb
}

Block Garbler::fresh_label() { return rng_.next_block(); }

Block Garbler::garble(Block a0, Block b0, netlist::AndCore core, GarbledTable& table) {
  const std::uint64_t j0 = tweak_;
  tweak_ += 2;
  ++gate_counter_;
  const Block fresh = scheme_ == Scheme::Classic4 ? fresh_label() : kZero;
  return garble_at(a0, b0, core, j0, fresh, table);
}

Block Garbler::garble_at(Block a0, Block b0, netlist::AndCore core, std::uint64_t tweak,
                         Block classic_fresh, GarbledTable& table) const {
  // Fold the gate's polarity into the labels: garble a plain AND over the
  // polarity-adjusted false labels, flip the output for gamma.
  const Block ea0 = a0 ^ maybe(r_, core.alpha);
  const Block eb0 = b0 ^ maybe(r_, core.beta);
  Block out0;
  switch (scheme_) {
    case Scheme::HalfGates: out0 = half_gates(ea0, eb0, tweak, table); break;
    case Scheme::Grr3: out0 = classic(ea0, eb0, tweak, kZero, table, /*grr3=*/true); break;
    case Scheme::Classic4:
      out0 = classic(ea0, eb0, tweak, classic_fresh, table, /*grr3=*/false);
      break;
    default: throw std::logic_error("garbler: unknown scheme");
  }
  return out0 ^ maybe(r_, core.gamma);
}

Block Garbler::half_gates(Block a0, Block b0, std::uint64_t j0, GarbledTable& table) const {
  const bool pa = a0.lsb();
  const bool pb = b0.lsb();
  const std::uint64_t j1 = j0 + 1;

  // The generator and evaluator half-gates need 4 independent hashes; one
  // batched call keeps all of them in the AES pipeline at once.
  const Block in[4] = {a0, a0 ^ r_, b0, b0 ^ r_};
  const std::uint64_t tw[4] = {j0, j0, j1, j1};
  Block h[4];
  hash_.hash4(in, tw, h);
  const Block ha0 = h[0];
  const Block ha1 = h[1];
  const Block tg = ha0 ^ ha1 ^ maybe(r_, pb);
  const Block wg0 = ha0 ^ maybe(tg, pa);

  const Block hb0 = h[2];
  const Block hb1 = h[3];
  const Block te = hb0 ^ hb1 ^ a0;
  const Block we0 = hb0 ^ maybe(te ^ a0, pb);

  table.rows[0] = tg;
  table.rows[1] = te;
  table.count = 2;
  return wg0 ^ we0;
}

Block Garbler::classic(Block a0, Block b0, std::uint64_t j0, Block w0_fresh, GarbledTable& table,
                       bool grr3) const {
  const bool pa = a0.lsb();
  const bool pb = b0.lsb();
  const std::uint64_t j1 = j0 + 1;

  const Block in[4] = {a0, a0 ^ r_, b0, b0 ^ r_};
  const std::uint64_t tw[4] = {j0, j0, j1, j1};
  Block h[4];
  hash_.hash4(in, tw, h);
  const Block ha[2] = {h[0], h[1]};
  const Block hb[2] = {h[2], h[3]};

  Block w0;
  if (grr3) {
    // Row (sa,sb)=(0,0) is defined to decrypt to all-zero: the output label
    // for value (pa & pb) equals H(a_pa) ^ H(b_pb).
    const Block pad00 = ha[pa ? 1 : 0] ^ hb[pb ? 1 : 0];
    const bool v00 = pa && pb;
    w0 = pad00 ^ maybe(r_, v00);
  } else {
    w0 = w0_fresh;
  }

  table.count = grr3 ? 3 : 4;
  for (int va = 0; va < 2; ++va) {
    for (int vb = 0; vb < 2; ++vb) {
      const int sa = static_cast<int>(pa) ^ va;
      const int sb = static_cast<int>(pb) ^ vb;
      const int slot = (sa << 1) | sb;
      const bool out_val = (va != 0) && (vb != 0);
      const Block ct = ha[va] ^ hb[vb] ^ w0 ^ maybe(r_, out_val);
      if (grr3) {
        if (slot == 0) continue;  // implicit all-zero row
        table.rows[static_cast<std::size_t>(slot - 1)] = ct;
      } else {
        table.rows[static_cast<std::size_t>(slot)] = ct;
      }
    }
  }
  return w0;
}

Block Evaluator::eval(Block a, Block b, const GarbledTable& table) {
  const std::uint64_t j0 = tweak_;
  tweak_ += 2;
  ++gate_counter_;
  switch (scheme_) {
    case Scheme::HalfGates: return eval_half_gates(a, b, j0, table);
    case Scheme::Grr3: return eval_classic(a, b, j0, table, /*grr3=*/true);
    case Scheme::Classic4: return eval_classic(a, b, j0, table, /*grr3=*/false);
    default: throw std::logic_error("evaluator: unknown scheme");
  }
}

Block Evaluator::eval_half_gates(Block a, Block b, std::uint64_t j0,
                                 const GarbledTable& table) const {
  const std::uint64_t j1 = j0 + 1;
  const Block tg = table.rows[0];
  const Block te = table.rows[1];
  const Block in[2] = {a, b};
  const std::uint64_t tw[2] = {j0, j1};
  Block h[2];
  hash_.hash2(in, tw, h);
  const Block wg = h[0] ^ maybe(tg, a.lsb());
  const Block we = h[1] ^ maybe(te ^ a, b.lsb());
  return wg ^ we;
}

Block Evaluator::eval_classic(Block a, Block b, std::uint64_t j0, const GarbledTable& table,
                              bool grr3) const {
  const std::uint64_t j1 = j0 + 1;
  const int slot = (static_cast<int>(a.lsb()) << 1) | static_cast<int>(b.lsb());
  const Block in[2] = {a, b};
  const std::uint64_t tw[2] = {j0, j1};
  Block h[2];
  hash_.hash2(in, tw, h);
  const Block pad = h[0] ^ h[1];
  if (grr3) {
    if (slot == 0) return pad;
    return pad ^ table.rows[static_cast<std::size_t>(slot - 1)];
  }
  return pad ^ table.rows[static_cast<std::size_t>(slot)];
}

}  // namespace arm2gc::gc
