#include "circuits/tg_circuits.h"

#include <stdexcept>

#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "circuits/gf_tower.h"
#include "circuits/reference.h"
#include "netlist/opt.h"

namespace arm2gc::circuits {

namespace {

using builder::Bus;
using builder::CircuitBuilder;
using builder::Wire;
using netlist::BitVec;
using netlist::Dff;
using netlist::Owner;

BitVec pad_bits(const BitVec& v, std::size_t n) {
  BitVec r = v;
  r.resize(n, false);
  return r;
}

std::vector<std::uint64_t> words_from_bits(const BitVec& bits) {
  std::vector<std::uint64_t> words((bits.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) words[i / 64] |= 1ull << (i % 64);
  }
  return words;
}

std::size_t count_width(std::size_t max_value) {
  std::size_t w = 1;
  while ((1ull << w) <= max_value) ++w;
  return w;
}

/// Rotate-left of a lane bus: result bit i carries input bit (i - n) mod w.
Bus rotl_bus(const Bus& in, std::size_t n) {
  const std::size_t w = in.size();
  Bus out(w, Wire{});
  for (std::size_t i = 0; i < w; ++i) out[i] = in[(i + w - n % w) % w];
  return out;
}

Bus byte_of(const Bus& bus, std::size_t i) {
  return Bus(bus.begin() + static_cast<std::ptrdiff_t>(8 * i),
             bus.begin() + static_cast<std::ptrdiff_t>(8 * i + 8));
}

Bus concat(const std::vector<Bus>& parts) {
  Bus out;
  for (const Bus& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

/// xtime: multiplication by 2 in the AES field (linear, free).
Bus aes_mul2(CircuitBuilder& cb, const Bus& b) {
  Bus out(8, cb.c0());
  for (int i = 0; i < 8; ++i) {
    Wire w = i > 0 ? b[static_cast<std::size_t>(i - 1)] : cb.c0();
    if ((0x1bu >> i) & 1u) w = cb.xor_(w, b[7]);
    out[static_cast<std::size_t>(i)] = w;
  }
  return out;
}

}  // namespace

TgRun run_instance(const TgInstance& inst, core::Mode mode) {
  core::RunOptions opts;
  opts.mode = mode;
  opts.fixed_cycles = inst.cycles;
  core::SkipGateDriver driver(inst.nl, opts);
  const bool has_streams = inst.streams.alice || inst.streams.bob || inst.streams.pub;
  const core::RunResult r =
      driver.run(inst.alice, inst.bob, inst.pub, has_streams ? &inst.streams : nullptr);
  TgRun out;
  out.results = inst.decode ? inst.decode(r.sampled_outputs) : std::vector<std::uint64_t>{};
  out.stats = r.stats;
  return out;
}

TgInstance tg_sum(std::size_t nbits, const BitVec& a, const BitVec& b) {
  TgInstance inst;
  inst.name = "Sum " + std::to_string(nbits);
  CircuitBuilder cb;
  const auto carry = cb.make_dff();
  const Wire wa = cb.input(Owner::Alice, 0, /*streamed=*/true, "a");
  const Wire wb = cb.input(Owner::Bob, 0, /*streamed=*/true, "b");
  const auto fa = builder::full_adder(cb, wa, wb, cb.dff_out(carry));
  cb.set_dff_d(carry, fa.carry);
  cb.output(fa.sum, "sum");
  cb.set_outputs_every_cycle(true);
  inst.nl = cb.take();
  inst.cycles = nbits;
  const BitVec ab = pad_bits(a, nbits);
  const BitVec bb = pad_bits(b, nbits);
  inst.streams.alice = [ab](std::uint64_t c) { return BitVec{ab[c]}; };
  inst.streams.bob = [bb](std::uint64_t c) { return BitVec{bb[c]}; };
  inst.decode = [nbits](const std::vector<BitVec>& sampled) {
    BitVec bits(nbits);
    for (std::size_t c = 0; c < nbits; ++c) bits[c] = sampled[c][0];
    return words_from_bits(bits);
  };
  return inst;
}

TgInstance tg_compare(std::size_t nbits, const BitVec& a, const BitVec& b) {
  TgInstance inst;
  inst.name = "Compare " + std::to_string(nbits);
  CircuitBuilder cb;
  const auto lt = cb.make_dff();
  const Wire wa = cb.input(Owner::Alice, 0, /*streamed=*/true, "a");
  const Wire wb = cb.input(Owner::Bob, 0, /*streamed=*/true, "b");
  const Wire next = cb.mux(cb.xor_(wa, wb), wb, cb.dff_out(lt));
  cb.set_dff_d(lt, next);
  cb.output(next, "a_lt_b");
  inst.nl = cb.take();
  inst.cycles = nbits;
  const BitVec ab = pad_bits(a, nbits);
  const BitVec bb = pad_bits(b, nbits);
  inst.streams.alice = [ab](std::uint64_t c) { return BitVec{ab[c]}; };
  inst.streams.bob = [bb](std::uint64_t c) { return BitVec{bb[c]}; };
  inst.decode = [](const std::vector<BitVec>& sampled) {
    return std::vector<std::uint64_t>{sampled.back()[0] ? 1ull : 0ull};
  };
  return inst;
}

TgInstance tg_hamming(std::size_t nbits, const BitVec& a, const BitVec& b) {
  TgInstance inst;
  inst.name = "Hamming " + std::to_string(nbits);
  const std::size_t w = count_width(nbits);
  CircuitBuilder cb;
  const auto cnt = cb.make_dff_bus(w);
  const Wire wa = cb.input(Owner::Alice, 0, /*streamed=*/true, "a");
  const Wire wb = cb.input(Owner::Bob, 0, /*streamed=*/true, "b");
  const Wire d = cb.xor_(wa, wb);
  const Bus cur = cb.dff_out_bus(cnt);
  Bus next(w, Wire{});
  Wire carry = d;
  for (std::size_t i = 0; i < w; ++i) {
    next[i] = cb.xor_(cur[i], carry);
    if (i + 1 < w) carry = cb.and_(cur[i], carry);
  }
  cb.set_dff_d_bus(cnt, next);
  cb.output_bus(next, "dist");
  inst.nl = cb.take();
  inst.cycles = nbits;
  const BitVec ab = pad_bits(a, nbits);
  const BitVec bb = pad_bits(b, nbits);
  inst.streams.alice = [ab](std::uint64_t c) { return BitVec{ab[c]}; };
  inst.streams.bob = [bb](std::uint64_t c) { return BitVec{bb[c]}; };
  inst.decode = [](const std::vector<BitVec>& sampled) {
    return words_from_bits(sampled.back());
  };
  return inst;
}

TgInstance tg_hamming_tree(std::size_t nbits, const BitVec& a, const BitVec& b) {
  TgInstance inst;
  inst.name = "HammingTree " + std::to_string(nbits);
  CircuitBuilder cb;
  const Bus ba = cb.input_bus(Owner::Alice, nbits, 0, false, "a");
  const Bus bb = cb.input_bus(Owner::Bob, nbits, 0, false, "b");
  const Bus d = builder::xor_bus(cb, ba, bb);
  cb.output_bus(builder::popcount(cb, d), "dist");
  inst.nl = cb.take();
  netlist::sweep_dead_gates(inst.nl);
  inst.cycles = 1;
  inst.alice = pad_bits(a, nbits);
  inst.bob = pad_bits(b, nbits);
  inst.decode = [](const std::vector<BitVec>& sampled) {
    return words_from_bits(sampled.back());
  };
  return inst;
}

TgInstance tg_mult32(std::uint32_t a, std::uint32_t b) {
  TgInstance inst;
  inst.name = "Mult 32";
  CircuitBuilder cb;
  const auto acc = cb.make_dff_bus(32);
  const auto ra = cb.make_dff_bus(32, Dff::Init::AliceBit, 0);
  const auto rb = cb.make_dff_bus(32, Dff::Init::BobBit, 0);
  const Bus va = cb.dff_out_bus(ra);
  const Bus vb = cb.dff_out_bus(rb);
  const Bus vacc = cb.dff_out_bus(acc);
  Bus pp(32, Wire{});
  for (std::size_t i = 0; i < 32; ++i) pp[i] = cb.and_(va[i], vb[0]);
  const Bus sum = builder::add(cb, vacc, pp);
  cb.set_dff_d_bus(acc, sum);
  cb.set_dff_d_bus(ra, builder::shl_const(cb, va, 1));
  cb.set_dff_d_bus(rb, builder::lshr_const(cb, vb, 1));
  cb.output_bus(sum, "product");
  inst.nl = cb.take();
  netlist::sweep_dead_gates(inst.nl);
  inst.cycles = 32;
  BitVec ab(32), bb(32);
  for (int i = 0; i < 32; ++i) {
    ab[static_cast<std::size_t>(i)] = ((a >> i) & 1u) != 0;
    bb[static_cast<std::size_t>(i)] = ((b >> i) & 1u) != 0;
  }
  inst.alice = ab;
  inst.bob = bb;
  inst.decode = [](const std::vector<BitVec>& sampled) {
    return words_from_bits(sampled.back());
  };
  return inst;
}

TgInstance tg_matmult(std::size_t n, const std::vector<std::uint32_t>& a,
                      const std::vector<std::uint32_t>& b) {
  if (a.size() != n * n || b.size() != n * n) {
    throw std::invalid_argument("tg_matmult: matrix size mismatch");
  }
  TgInstance inst;
  inst.name = "MatrixMult" + std::to_string(n) + "x" + std::to_string(n) + " 32";
  CircuitBuilder cb;
  const auto acc = cb.make_dff_bus(32);
  const Bus wa = cb.input_bus(Owner::Alice, 32, 0, /*streamed=*/true, "a");
  const Bus wb = cb.input_bus(Owner::Bob, 32, 0, /*streamed=*/true, "b");
  const Wire first = cb.input(Owner::Public, 0, /*streamed=*/true, "first");
  const Bus p = builder::mul_lower(cb, wa, wb, 32);
  const Bus macc = builder::add(cb, cb.dff_out_bus(acc), p);
  const Bus next = builder::mux_bus(cb, first, p, macc);
  cb.set_dff_d_bus(acc, next);
  cb.output_bus(next, "acc");
  cb.set_outputs_every_cycle(true);
  inst.nl = cb.take();
  netlist::sweep_dead_gates(inst.nl);
  inst.cycles = n * n * n;

  auto word_bits = [](std::uint32_t v) {
    BitVec bits(32);
    for (int i = 0; i < 32; ++i) bits[static_cast<std::size_t>(i)] = ((v >> i) & 1u) != 0;
    return bits;
  };
  inst.streams.alice = [a, n, word_bits](std::uint64_t c) {
    const std::size_t i = c / (n * n);
    const std::size_t k = c % n;
    return word_bits(a[i * n + k]);
  };
  inst.streams.bob = [b, n, word_bits](std::uint64_t c) {
    const std::size_t j = (c / n) % n;
    const std::size_t k = c % n;
    return word_bits(b[k * n + j]);
  };
  inst.streams.pub = [n](std::uint64_t c) { return BitVec{c % n == 0}; };
  inst.decode = [n](const std::vector<BitVec>& sampled) {
    std::vector<std::uint64_t> out;
    for (std::size_t c = n - 1; c < sampled.size(); c += n) {
      out.push_back(words_from_bits(sampled[c])[0]);
    }
    return out;
  };
  return inst;
}

TgInstance tg_sha3_256(const std::vector<std::uint8_t>& message) {
  constexpr std::size_t kRateBits = 1088;
  if (message.size() > 135) throw std::invalid_argument("tg_sha3_256: single block only");
  TgInstance inst;
  inst.name = "SHA3 256";
  // Pad to the 136-byte rate (0x06 ... 0x80 domain padding).
  std::vector<std::uint8_t> padded = message;
  padded.push_back(0x06);
  padded.resize(136, 0x00);
  padded.back() ^= 0x80;
  BitVec msg_bits(kRateBits);
  for (std::size_t i = 0; i < kRateBits; ++i) {
    msg_bits[i] = ((padded[i / 8] >> (i % 8)) & 1u) != 0;
  }

  CircuitBuilder cb;
  // 25 lanes x 64 bits; the rate region holds Alice's padded message.
  std::vector<std::vector<CircuitBuilder::DffHandle>> lanes(25);
  for (std::size_t l = 0; l < 25; ++l) {
    if (64 * (l + 1) <= kRateBits) {
      lanes[l] = cb.make_dff_bus(64, Dff::Init::AliceBit, static_cast<std::uint32_t>(64 * l));
    } else {
      lanes[l] = cb.make_dff_bus(64, Dff::Init::Zero);
    }
  }
  const Bus rc = cb.input_bus(Owner::Public, 64, 0, /*streamed=*/true, "rc");

  std::vector<Bus> a(25);
  for (std::size_t l = 0; l < 25; ++l) a[l] = cb.dff_out_bus(lanes[l]);

  // Theta.
  std::vector<Bus> c(5);
  for (int x = 0; x < 5; ++x) {
    Bus acc = a[static_cast<std::size_t>(x)];
    for (int y = 1; y < 5; ++y) acc = builder::xor_bus(cb, acc, a[static_cast<std::size_t>(x + 5 * y)]);
    c[static_cast<std::size_t>(x)] = acc;
  }
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      const Bus d = builder::xor_bus(cb, c[static_cast<std::size_t>((x + 4) % 5)],
                                     rotl_bus(c[static_cast<std::size_t>((x + 1) % 5)], 1));
      a[static_cast<std::size_t>(x + 5 * y)] =
          builder::xor_bus(cb, a[static_cast<std::size_t>(x + 5 * y)], d);
    }
  }
  // Rho + Pi.
  static constexpr unsigned kRho[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                                        25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};
  std::vector<Bus> bl(25);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      const int nx = y;
      const int ny = (2 * x + 3 * y) % 5;
      bl[static_cast<std::size_t>(nx + 5 * ny)] =
          rotl_bus(a[static_cast<std::size_t>(x + 5 * y)], kRho[x + 5 * y]);
    }
  }
  // Chi (+ Iota on lane 0).
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      const Bus& b0 = bl[static_cast<std::size_t>(x + 5 * y)];
      const Bus& b1 = bl[static_cast<std::size_t>((x + 1) % 5 + 5 * y)];
      const Bus& b2 = bl[static_cast<std::size_t>((x + 2) % 5 + 5 * y)];
      Bus out(64, Wire{});
      for (std::size_t z = 0; z < 64; ++z) {
        out[z] = cb.xor_(b0[z], cb.andn_(b2[z], b1[z]));  // b0 ^ (~b1 & b2)
      }
      if (x == 0 && y == 0) out = builder::xor_bus(cb, out, rc);
      cb.set_dff_d_bus(lanes[static_cast<std::size_t>(x + 5 * y)], out);
      if (x + 5 * y < 4) cb.output_bus(out, "digest" + std::to_string(x + 5 * y));
    }
  }
  inst.nl = cb.take();
  netlist::sweep_dead_gates(inst.nl);
  inst.cycles = 24;
  inst.alice = msg_bits;
  inst.streams.pub = [](std::uint64_t cidx) {
    const std::uint64_t rcv = keccak_round_constants()[cidx];
    BitVec bits(64);
    for (int i = 0; i < 64; ++i) bits[static_cast<std::size_t>(i)] = ((rcv >> i) & 1u) != 0;
    return bits;
  };
  inst.decode = [](const std::vector<BitVec>& sampled) {
    return words_from_bits(sampled.back());
  };
  return inst;
}

TgInstance tg_aes128(const std::array<std::uint8_t, 16>& pt,
                     const std::array<std::uint8_t, 16>& key) {
  TgInstance inst;
  inst.name = "AES 128";
  CircuitBuilder cb;
  const auto state = cb.make_dff_bus(128, Dff::Init::AliceBit, 0);
  const auto keyreg = cb.make_dff_bus(128, Dff::Init::BobBit, 0);
  const Wire first = cb.input(Owner::Public, 0, /*streamed=*/true, "first");
  const Wire last = cb.input(Owner::Public, 1, /*streamed=*/true, "last");
  const Bus rcon = cb.input_bus(Owner::Public, 8, 2, /*streamed=*/true, "rcon");

  const Bus s = cb.dff_out_bus(state);
  const Bus k = cb.dff_out_bus(keyreg);

  // Round input: pt ^ k0 on the first cycle, the latched state afterwards.
  const Bus s_in = builder::mux_bus(cb, first, builder::xor_bus(cb, s, k), s);

  // SubBytes via the tower-field S-box.
  std::vector<Bus> sb(16);
  for (std::size_t i = 0; i < 16; ++i) sb[i] = build_sbox(cb, byte_of(s_in, i));

  // ShiftRows: out[r + 4c] = in[r + 4((c + r) % 4)].
  std::vector<Bus> sr(16);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t col = 0; col < 4; ++col) {
      sr[r + 4 * col] = sb[r + 4 * ((col + r) % 4)];
    }
  }

  // MixColumns (linear).
  std::vector<Bus> mc(16);
  for (std::size_t col = 0; col < 4; ++col) {
    const Bus& a0 = sr[4 * col];
    const Bus& a1 = sr[4 * col + 1];
    const Bus& a2 = sr[4 * col + 2];
    const Bus& a3 = sr[4 * col + 3];
    auto m2 = [&](const Bus& x) { return aes_mul2(cb, x); };
    auto m3 = [&](const Bus& x) { return builder::xor_bus(cb, aes_mul2(cb, x), x); };
    mc[4 * col] = builder::xor_bus(cb, builder::xor_bus(cb, m2(a0), m3(a1)),
                                   builder::xor_bus(cb, a2, a3));
    mc[4 * col + 1] = builder::xor_bus(cb, builder::xor_bus(cb, a0, m2(a1)),
                                       builder::xor_bus(cb, m3(a2), a3));
    mc[4 * col + 2] = builder::xor_bus(cb, builder::xor_bus(cb, a0, a1),
                                       builder::xor_bus(cb, m2(a2), m3(a3)));
    mc[4 * col + 3] = builder::xor_bus(cb, builder::xor_bus(cb, m3(a0), a1),
                                       builder::xor_bus(cb, a2, m2(a3)));
  }

  // On-the-fly key schedule: w_i are 4-byte groups of the key register.
  std::vector<Bus> kw(4);
  for (std::size_t i = 0; i < 4; ++i) {
    kw[i] = Bus(k.begin() + static_cast<std::ptrdiff_t>(32 * i),
                k.begin() + static_cast<std::ptrdiff_t>(32 * i + 32));
  }
  // RotWord + SubWord on w3; rcon into the first byte of the group.
  std::vector<Bus> w3b(4);
  for (std::size_t i = 0; i < 4; ++i) w3b[i] = build_sbox(cb, byte_of(kw[3], (i + 1) % 4));
  w3b[0] = builder::xor_bus(cb, w3b[0], rcon);
  const Bus t = concat(w3b);
  std::vector<Bus> kn(4);
  kn[0] = builder::xor_bus(cb, kw[0], t);
  kn[1] = builder::xor_bus(cb, kw[1], kn[0]);
  kn[2] = builder::xor_bus(cb, kw[2], kn[1]);
  kn[3] = builder::xor_bus(cb, kw[3], kn[2]);
  const Bus keynext = concat(kn);

  // AddRoundKey with the *next* round key; final round skips MixColumns.
  const Bus round_out = builder::mux_bus(cb, last, concat(sr), concat(mc));
  const Bus state_next = builder::xor_bus(cb, round_out, keynext);
  cb.set_dff_d_bus(state, state_next);
  cb.set_dff_d_bus(keyreg, keynext);
  cb.output_bus(state_next, "ct");

  inst.nl = cb.take();
  netlist::sweep_dead_gates(inst.nl);
  inst.cycles = 10;
  BitVec ptb(128), kb(128);
  for (std::size_t i = 0; i < 128; ++i) {
    ptb[i] = ((pt[i / 8] >> (i % 8)) & 1u) != 0;
    kb[i] = ((key[i / 8] >> (i % 8)) & 1u) != 0;
  }
  inst.alice = ptb;
  inst.bob = kb;
  inst.streams.pub = [](std::uint64_t c) {
    static constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                               0x20, 0x40, 0x80, 0x1b, 0x36};
    BitVec bits(10);
    bits[0] = c == 0;
    bits[1] = c == 9;
    for (int i = 0; i < 8; ++i) bits[static_cast<std::size_t>(2 + i)] = ((kRcon[c] >> i) & 1u) != 0;
    return bits;
  };
  inst.decode = [](const std::vector<BitVec>& sampled) {
    return words_from_bits(sampled.back());
  };
  return inst;
}

}  // namespace arm2gc::circuits
