// Targeted tests for the planner's XOR-cancellation peephole (see
// core/plan.h): public-select multiplexers must release the unselected side's label
// from the needed-cone, and must never change results — including when the
// select is secret, when branches alias, and across pass/DFF boundaries.
#include <gtest/gtest.h>

#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/skipgate.h"
#include "crypto/rng.h"
#include "netlist/simulator.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using namespace arm2gc::builder;
using arm2gc::core::Mode;
using arm2gc::core::RunOptions;
using arm2gc::core::RunResult;
using arm2gc::core::SkipGateDriver;
using a2gtest::from_bits;
using a2gtest::to_bits;

RunResult run_skip(const netlist::Netlist& nl, const netlist::BitVec& a,
                   const netlist::BitVec& b, const netlist::BitVec& p = {}) {
  RunOptions opts;
  opts.fixed_cycles = 1;
  SkipGateDriver driver(nl, opts);
  return driver.run(a, b, p);
}

TEST(Peephole, PublicSelectMuxDropsUnselectedCone) {
  // t = a*b (expensive), f = a+b; out = mux(public sel, t, f). With sel=0
  // the multiplier must not be garbled at all.
  CircuitBuilder cb;
  const Bus a = cb.input_bus(netlist::Owner::Alice, 8, 0);
  const Bus b = cb.input_bus(netlist::Owner::Bob, 8, 0);
  const Wire sel = cb.input(netlist::Owner::Public, 0);
  const Bus t = mul_lower(cb, a, b, 8);
  const Bus f = add(cb, a, b);
  cb.output_bus(mux_bus(cb, sel, t, f));
  const netlist::Netlist nl = cb.take();

  const RunResult f_side = run_skip(nl, to_bits(9, 8), to_bits(13, 8), {false});
  EXPECT_EQ(from_bits(f_side.final_outputs, 0, 8), (9u + 13u) & 0xFF);
  EXPECT_LE(f_side.stats.garbled_non_xor, 7u);  // just the adder

  const RunResult t_side = run_skip(nl, to_bits(9, 8), to_bits(13, 8), {true});
  EXPECT_EQ(from_bits(t_side.final_outputs, 0, 8), (9u * 13u) & 0xFF);
  EXPECT_GT(t_side.stats.garbled_non_xor, 7u);   // multiplier garbled
  EXPECT_LT(t_side.stats.garbled_non_xor, 200u);  // adder dropped
}

TEST(Peephole, CascadedSelectTreeCollapses) {
  // 4-way select by a public index over four expensive alternatives: only
  // the chosen alternative's gates may be garbled.
  for (std::uint32_t which = 0; which < 4; ++which) {
    CircuitBuilder cb;
    const Bus a = cb.input_bus(netlist::Owner::Alice, 8, 0);
    const Bus b = cb.input_bus(netlist::Owner::Bob, 8, 0);
    const Bus sel = cb.input_bus(netlist::Owner::Public, 2, 0);
    std::vector<Bus> options = {
        add(cb, a, b),
        sub(cb, a, b),
        and_bus(cb, a, b),
        or_bus(cb, a, b),
    };
    cb.output_bus(select(cb, sel, options));
    const netlist::Netlist nl = cb.take();
    const std::uint32_t av = 0xA5, bv = 0x3C;
    const RunResult r = run_skip(nl, to_bits(av, 8), to_bits(bv, 8), to_bits(which, 2));
    const std::uint32_t expect[] = {(av + bv) & 0xFF, (av - bv) & 0xFF, av & bv, av | bv};
    EXPECT_EQ(from_bits(r.final_outputs, 0, 8), expect[which]) << which;
    EXPECT_LE(r.stats.garbled_non_xor, 8u) << which;  // single 8-bit op
  }
}

TEST(Peephole, SecretSelectStillWorks) {
  // With a *secret* select the mux AND must be garbled and both sides are
  // legitimately needed — the peephole must not fire.
  CircuitBuilder cb;
  const Bus a = cb.input_bus(netlist::Owner::Alice, 8, 0);
  const Bus b = cb.input_bus(netlist::Owner::Bob, 8, 0);
  const Wire sel = cb.input(netlist::Owner::Bob, 8);
  cb.output_bus(mux_bus(cb, sel, and_bus(cb, a, b), or_bus(cb, a, b)));
  const netlist::Netlist nl = cb.take();
  for (const bool sv : {false, true}) {
    netlist::BitVec bob = to_bits(0x3C, 9);
    bob[8] = sv;
    const RunResult r = run_skip(nl, to_bits(0xA5, 8), bob);
    EXPECT_EQ(from_bits(r.final_outputs, 0, 8),
              sv ? (0xA5u & 0x3Cu) : (0xA5u | 0x3Cu));
    // both 8-bit ops + 8 mux ANDs
    EXPECT_EQ(r.stats.garbled_non_xor, 24u);
  }
}

TEST(Peephole, AliasedBranchesCollapseViaFingerprints) {
  // mux(sel, x, x) == x even when the two branch wires are built separately:
  // category-iii (equal fingerprints) folds it before the peephole matters.
  netlist::Netlist nl;
  nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, 0, "x"});
  nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, 0, "s"});
  const netlist::WireId x = nl.input_wire(0);
  const netlist::WireId s = nl.input_wire(1);
  // diff = x ^ x (const 0 at label level) ... via two separate XOR gates.
  nl.gates.push_back(netlist::Gate{x, x, netlist::kTtXor});               // = 0
  nl.gates.push_back(netlist::Gate{s, nl.gate_wire(0), netlist::kTtAnd});  // = 0
  nl.gates.push_back(netlist::Gate{x, nl.gate_wire(1), netlist::kTtXor});  // = x
  nl.outputs.push_back(netlist::OutputPort{nl.gate_wire(2), false, "y"});
  for (int bits = 0; bits < 4; ++bits) {
    const RunResult r = run_skip(nl, {(bits & 1) != 0}, {(bits & 2) != 0});
    EXPECT_EQ(r.final_outputs[0], (bits & 1) != 0);
    EXPECT_EQ(r.stats.garbled_non_xor, 0u);
  }
}

class PeepholeRandom : public ::testing::TestWithParam<int> {};

TEST_P(PeepholeRandom, RandomMuxTreesMatchSimulator) {
  crypto::CtrRng rng(crypto::block_from_u64(static_cast<std::uint64_t>(GetParam()) * 131 + 7));
  CircuitBuilder cb;
  const Bus a = cb.input_bus(netlist::Owner::Alice, 8, 0);
  const Bus b = cb.input_bus(netlist::Owner::Bob, 8, 0);
  const Bus pub = cb.input_bus(netlist::Owner::Public, 4, 0);
  // Random expression DAG of arithmetic blocks combined by muxes with a mix
  // of public and secret selects.
  std::vector<Bus> pool = {a, b};
  for (int step = 0; step < 10; ++step) {
    const Bus& x = pool[rng.next_below(pool.size())];
    const Bus& y = pool[rng.next_below(pool.size())];
    switch (rng.next_below(5)) {
      case 0: pool.push_back(add(cb, x, y)); break;
      case 1: pool.push_back(sub(cb, x, y)); break;
      case 2: pool.push_back(xor_bus(cb, x, y)); break;
      case 3: {
        const Wire sel = pub[rng.next_below(4)];
        pool.push_back(mux_bus(cb, sel, x, y));
        break;
      }
      default: {
        const Wire sel = (rng.next_bool() ? a : b)[rng.next_below(8)];
        pool.push_back(mux_bus(cb, sel, x, y));
        break;
      }
    }
  }
  cb.output_bus(pool.back());
  const netlist::Netlist nl = cb.take();

  const netlist::BitVec av = to_bits(rng.next_u64(), 8);
  const netlist::BitVec bv = to_bits(rng.next_u64(), 8);
  const netlist::BitVec pv = to_bits(rng.next_u64(), 4);

  netlist::Simulator sim(nl);
  sim.reset(av, bv, pv);
  sim.step();
  const RunResult skip = run_skip(nl, av, bv, pv);
  EXPECT_EQ(skip.final_outputs, sim.read_outputs());

  RunOptions copts;
  copts.mode = Mode::Conventional;
  copts.fixed_cycles = 1;
  SkipGateDriver conv(nl, copts);
  const RunResult rc = conv.run(av, bv, pv);
  EXPECT_EQ(rc.final_outputs, sim.read_outputs());
  EXPECT_LE(skip.stats.garbled_non_xor, rc.stats.garbled_non_xor);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeepholeRandom, ::testing::Range(0, 30));

TEST(Peephole, SequentialMuxAcrossCycles) {
  // Accumulator updated through a public-select mux: acc' = sel ? acc+in : acc.
  // On "hold" cycles nothing may be garbled.
  CircuitBuilder cb;
  const auto acc = cb.make_dff_bus(8);
  const Wire in_sel = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const Bus in = cb.input_bus(netlist::Owner::Alice, 8, 0, /*streamed=*/true);
  const Bus next = mux_bus(cb, in_sel, add(cb, cb.dff_out_bus(acc), in), cb.dff_out_bus(acc));
  cb.set_dff_d_bus(acc, next);
  cb.output_bus(next);
  const netlist::Netlist nl = cb.take();

  core::StreamProvider streams;
  streams.alice = [](std::uint64_t) { return to_bits(5, 8); };
  streams.pub = [](std::uint64_t c) { return netlist::BitVec{c % 2 == 0}; };
  RunOptions opts;
  opts.fixed_cycles = 6;  // add on cycles 0,2,4 -> acc = 15
  SkipGateDriver driver(nl, opts);
  const RunResult r = driver.run({}, {}, {}, &streams);
  EXPECT_EQ(from_bits(r.final_outputs, 0, 8), 15u);
  // Only 3 active cycles garble, and the first add has a public accumulator.
  EXPECT_LE(r.stats.garbled_non_xor, 3u * 7u);
}

}  // namespace
