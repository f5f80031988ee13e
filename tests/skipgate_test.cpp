#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

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

RunResult run_once(const netlist::Netlist& nl, Mode mode, const netlist::BitVec& a,
                   const netlist::BitVec& b, const netlist::BitVec& p = {},
                   std::uint64_t cycles = 1) {
  RunOptions opts;
  opts.mode = mode;
  opts.fixed_cycles = cycles;
  SkipGateDriver driver(nl, opts);
  return driver.run(a, b, p);
}

TEST(SkipGate, SingleAndGate) {
  for (int bits = 0; bits < 4; ++bits) {
    CircuitBuilder cb;
    const Wire a = cb.input(netlist::Owner::Alice, 0);
    const Wire b = cb.input(netlist::Owner::Bob, 0);
    cb.output(cb.and_(a, b));
    const netlist::Netlist nl = cb.take();
    const RunResult r = run_once(nl, Mode::SkipGate, {(bits & 1) != 0}, {(bits & 2) != 0});
    EXPECT_EQ(r.final_outputs[0], (bits & 1) && (bits & 2));
    EXPECT_EQ(r.stats.garbled_non_xor, 1u);
  }
}

TEST(SkipGate, ExecThreadsMustBeOne) {
  // Each party runs serially; the legacy thread-count option accepts only 1.
  CircuitBuilder cb;
  cb.output(cb.and_(cb.input(netlist::Owner::Alice, 0), cb.input(netlist::Owner::Bob, 0)));
  const netlist::Netlist nl = cb.take();
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    RunOptions opts;
    opts.exec.threads = threads;
    EXPECT_THROW((void)SkipGateDriver(nl, opts).run({true}, {true}), std::invalid_argument);
  }
}

TEST(SkipGate, PublicOnlyCircuitGarblesNothing) {
  CircuitBuilder cb;
  const Bus a = cb.input_bus(netlist::Owner::Public, 8, 0);
  const Bus b = cb.input_bus(netlist::Owner::Public, 8, 8);
  cb.output_bus(mul_lower(cb, a, b, 8));
  const netlist::Netlist nl = cb.take();
  const RunResult r = run_once(nl, Mode::SkipGate, {}, {}, to_bits(7 | (6 << 8), 16));
  EXPECT_EQ(from_bits(r.final_outputs, 0, 8), 42u);
  EXPECT_EQ(r.stats.garbled_non_xor, 0u);
  EXPECT_GT(r.stats.non_xor_slots, 0u);
  EXPECT_EQ(r.stats.comm.garbled_table_bytes, 0u);
}

TEST(SkipGate, CategoryIiPublicInputCollapsesGate) {
  // AND with public 0 -> public 0; AND with public 1 -> pass-through.
  CircuitBuilder cb;
  const Wire s = cb.input(netlist::Owner::Alice, 0);
  const Wire p = cb.input(netlist::Owner::Public, 0);
  cb.output(cb.and_(s, p));
  cb.output(cb.or_(s, p));
  const netlist::Netlist nl = cb.take();
  for (const bool pv : {false, true}) {
    for (const bool sv : {false, true}) {
      const RunResult r = run_once(nl, Mode::SkipGate, {sv}, {}, {pv});
      EXPECT_EQ(r.final_outputs[0], sv && pv);
      EXPECT_EQ(r.final_outputs[1], sv || pv);
      EXPECT_EQ(r.stats.garbled_non_xor, 0u);
    }
  }
}

TEST(SkipGate, CategoryIiiIdenticalLabelsThroughXorChain) {
  // y = (a ^ b) ^ b carries exactly a's label; AND(y, a) is category iii and
  // collapses to a wire; nothing is garbled. This exercises the fingerprint
  // detection of XOR-derived label equality.
  // Build gates directly through the netlist API: the builder would fold
  // xor(xor(a,b),b) -> a structurally before SkipGate ever saw it.
  netlist::Netlist nl;
  nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, 0, "a"});
  nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, 0, "b"});
  const netlist::WireId wa = nl.input_wire(0);
  const netlist::WireId wb = nl.input_wire(1);
  nl.gates.push_back(netlist::Gate{wa, wb, netlist::kTtXor});
  nl.gates.push_back(netlist::Gate{nl.gate_wire(0), wb, netlist::kTtXor});  // == a
  nl.gates.push_back(netlist::Gate{nl.gate_wire(1), wa, netlist::kTtAnd});  // == a
  nl.outputs.push_back(netlist::OutputPort{nl.gate_wire(2), false, "y"});

  for (const bool av : {false, true}) {
    for (const bool bv : {false, true}) {
      const RunResult r = run_once(nl, Mode::SkipGate, {av}, {bv});
      EXPECT_EQ(r.final_outputs[0], av);
      EXPECT_EQ(r.stats.garbled_non_xor, 0u);
    }
  }
}

TEST(SkipGate, CategoryIiiInvertedLabels) {
  // AND(x, ~x) == 0 and OR(x, ~x) == 1, detected via the flip bit.
  netlist::Netlist nl;
  nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, 0, "a"});
  const netlist::WireId wa = nl.input_wire(0);
  nl.gates.push_back(netlist::Gate{wa, netlist::kConst1, netlist::kTtXor});  // ~a
  nl.gates.push_back(netlist::Gate{wa, nl.gate_wire(0), netlist::kTtAnd});
  nl.gates.push_back(netlist::Gate{wa, nl.gate_wire(0), netlist::kTtOr});
  nl.outputs.push_back(netlist::OutputPort{nl.gate_wire(1), false, "and"});
  nl.outputs.push_back(netlist::OutputPort{nl.gate_wire(2), false, "or"});
  for (const bool av : {false, true}) {
    const RunResult r = run_once(nl, Mode::SkipGate, {av}, {});
    EXPECT_FALSE(r.final_outputs[0]);
    EXPECT_TRUE(r.final_outputs[1]);
    EXPECT_EQ(r.stats.garbled_non_xor, 0u);
  }
}

TEST(SkipGate, DeadGateEliminatedByFanoutReduction) {
  // AND(a,b) feeds only AND(., public 0): the first AND's label has no
  // effect on the output, so it must not be garbled (recursive reduction).
  CircuitBuilder cb;
  const Wire a = cb.input(netlist::Owner::Alice, 0);
  const Wire b = cb.input(netlist::Owner::Bob, 0);
  const Wire p = cb.input(netlist::Owner::Public, 0);
  const Wire dead = cb.and_(a, b);
  cb.output(cb.and_(dead, p));
  cb.output(cb.xor_(a, b));
  const netlist::Netlist nl = cb.take();
  const RunResult r = run_once(nl, Mode::SkipGate, {true}, {false}, {false});
  EXPECT_FALSE(r.final_outputs[0]);
  EXPECT_TRUE(r.final_outputs[1]);  // xor(a=1, b=0)
  EXPECT_EQ(r.stats.garbled_non_xor, 0u);
  EXPECT_EQ(r.stats.skipped_non_xor, 2u);
}

TEST(SkipGate, ConventionalModeGarblesEverything) {
  CircuitBuilder cb;
  const Wire a = cb.input(netlist::Owner::Alice, 0);
  const Wire b = cb.input(netlist::Owner::Bob, 0);
  const Wire p = cb.input(netlist::Owner::Public, 0);
  cb.output(cb.and_(cb.and_(a, p), b));
  const netlist::Netlist nl = cb.take();
  for (int bits = 0; bits < 8; ++bits) {
    const RunResult r = run_once(nl, Mode::Conventional, {(bits & 1) != 0}, {(bits & 2) != 0},
                                 {(bits & 4) != 0});
    EXPECT_EQ(r.final_outputs[0], (bits & 1) && (bits & 2) && (bits & 4));
    EXPECT_EQ(r.stats.garbled_non_xor, nl.count_non_free());
  }
}

// --- randomized equivalence: simulator == SkipGate == conventional -----------

class RandomCircuits : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuits, AllThreeExecutionsAgree) {
  crypto::CtrRng rng(crypto::block_from_u64(static_cast<std::uint64_t>(GetParam()) * 7919 + 1));

  // Random DAG over Alice/Bob/public inputs with random 2-input gates,
  // built directly at netlist level so no builder simplification hides the
  // hard cases from the planner.
  netlist::Netlist nl;
  constexpr int kInPerParty = 4;
  for (int i = 0; i < kInPerParty; ++i) {
    nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, static_cast<std::uint32_t>(i), ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, static_cast<std::uint32_t>(i), ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Public, false, static_cast<std::uint32_t>(i), ""});
  }
  const int num_gates = 40 + static_cast<int>(rng.next_below(40));
  for (int g = 0; g < num_gates; ++g) {
    const auto limit = static_cast<std::uint32_t>(2 + nl.inputs.size() + static_cast<std::size_t>(g));
    const auto wa = static_cast<netlist::WireId>(rng.next_below(limit));
    const auto wb = static_cast<netlist::WireId>(rng.next_below(limit));
    const auto tt = static_cast<netlist::TruthTable>(rng.next_below(16));
    nl.gates.push_back(netlist::Gate{wa, wb, tt});
  }
  for (int o = 0; o < 8; ++o) {
    const auto w = static_cast<netlist::WireId>(rng.next_below(static_cast<std::uint32_t>(nl.num_wires())));
    nl.outputs.push_back(netlist::OutputPort{w, rng.next_bool(), ""});
  }

  const netlist::BitVec a = to_bits(rng.next_u64(), kInPerParty);
  const netlist::BitVec b = to_bits(rng.next_u64(), kInPerParty);
  const netlist::BitVec p = to_bits(rng.next_u64(), kInPerParty);

  netlist::Simulator sim(nl);
  sim.reset(a, b, p);
  sim.step();
  const netlist::BitVec expect = sim.read_outputs();

  const RunResult skip = run_once(nl, Mode::SkipGate, a, b, p);
  const RunResult conv = run_once(nl, Mode::Conventional, a, b, p);
  EXPECT_EQ(skip.final_outputs, expect);
  EXPECT_EQ(conv.final_outputs, expect);
  EXPECT_LE(skip.stats.garbled_non_xor, conv.stats.garbled_non_xor);
  EXPECT_EQ(conv.stats.garbled_non_xor, nl.count_non_free());
  EXPECT_EQ(skip.stats.garbled_non_xor + skip.stats.skipped_non_xor, skip.stats.non_xor_slots);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuits, ::testing::Range(0, 40));

// --- sequential circuits -------------------------------------------------------

/// Bit-serial adder: 1-bit full adder + carry flip-flop, one bit per cycle.
netlist::Netlist make_serial_adder() {
  CircuitBuilder cb;
  const auto carry = cb.make_dff(netlist::Dff::Init::Zero);
  const Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const Wire b = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const auto fa = full_adder(cb, a, b, cb.dff_out(carry));
  cb.set_dff_d(carry, fa.carry);
  cb.output(fa.sum, "sum");
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

TEST(SkipGateSequential, SerialAdderComputesSum) {
  const netlist::Netlist nl = make_serial_adder();
  const std::uint32_t a = 0xDEADBEEF;
  const std::uint32_t b = 0x12345679;

  core::StreamProvider streams;
  streams.alice = [&](std::uint64_t c) { return netlist::BitVec{((a >> c) & 1u) != 0}; };
  streams.bob = [&](std::uint64_t c) { return netlist::BitVec{((b >> c) & 1u) != 0}; };

  RunOptions opts;
  opts.fixed_cycles = 32;
  SkipGateDriver driver(nl, opts);
  const RunResult r = driver.run({}, {}, {}, &streams);
  ASSERT_EQ(r.sampled_outputs.size(), 32u);
  std::uint32_t sum = 0;
  for (int i = 0; i < 32; ++i) {
    if (r.sampled_outputs[static_cast<std::size_t>(i)][0]) sum |= 1u << i;
  }
  EXPECT_EQ(sum, a + b);
  // Paper Table 1, Sum 32: 32 non-XOR conventional, 31 with SkipGate (the
  // final carry's garbled table is dead and dropped).
  EXPECT_EQ(r.stats.garbled_non_xor, 31u);
  EXPECT_EQ(r.stats.non_xor_slots, 32u);

  RunOptions copts = opts;
  copts.mode = Mode::Conventional;
  SkipGateDriver cdriver(nl, copts);
  const RunResult rc = cdriver.run({}, {}, {}, &streams);
  EXPECT_EQ(rc.stats.garbled_non_xor, 32u);
  std::uint32_t csum = 0;
  for (int i = 0; i < 32; ++i) {
    if (rc.sampled_outputs[static_cast<std::size_t>(i)][0]) csum |= 1u << i;
  }
  EXPECT_EQ(csum, a + b);
}

/// Bit-serial unsigned comparator (LSB first): lt' = mux(a^b, b, lt).
netlist::Netlist make_serial_comparator() {
  CircuitBuilder cb;
  const auto lt = cb.make_dff(netlist::Dff::Init::Zero);
  const Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const Wire b = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const Wire diff = cb.xor_(a, b);
  const Wire next = cb.mux(diff, b, cb.dff_out(lt));
  cb.set_dff_d(lt, next);
  cb.output(next, "a_lt_b");
  return cb.take();
}

TEST(SkipGateSequential, SerialComparatorNoImprovement) {
  const netlist::Netlist nl = make_serial_comparator();
  const std::uint32_t a = 0x80000001;
  const std::uint32_t b = 0x80000002;
  core::StreamProvider streams;
  streams.alice = [&](std::uint64_t c) { return netlist::BitVec{((a >> c) & 1u) != 0}; };
  streams.bob = [&](std::uint64_t c) { return netlist::BitVec{((b >> c) & 1u) != 0}; };
  RunOptions opts;
  opts.fixed_cycles = 32;
  SkipGateDriver driver(nl, opts);
  const RunResult r = driver.run({}, {}, {}, &streams);
  EXPECT_TRUE(r.final_outputs[0]);
  // Paper Table 1, Compare 32: SkipGate saves nothing (0.00%): the output of
  // the final cycle is exactly the last AND.
  EXPECT_EQ(r.stats.garbled_non_xor, 32u);
}

TEST(SkipGateSequential, DffInitialValuesFromParties) {
  // Swap circuit: two registers initialized from Alice and Bob, cross-copied
  // every cycle; after an odd number of cycles values are swapped.
  CircuitBuilder cb;
  const auto ra = cb.make_dff_bus(4, netlist::Dff::Init::AliceBit, 0);
  const auto rb = cb.make_dff_bus(4, netlist::Dff::Init::BobBit, 0);
  cb.set_dff_d_bus(ra, cb.dff_out_bus(rb));
  cb.set_dff_d_bus(rb, cb.dff_out_bus(ra));
  cb.output_bus(cb.dff_out_bus(ra), "a");
  cb.output_bus(cb.dff_out_bus(rb), "b");
  const netlist::Netlist nl = cb.take();

  RunOptions opts;
  opts.fixed_cycles = 2;  // outputs sampled on final cycle: one swap applied
  SkipGateDriver driver(nl, opts);
  const RunResult r = driver.run(to_bits(0x5, 4), to_bits(0xA, 4));
  EXPECT_EQ(from_bits(r.final_outputs, 0, 4), 0xAu);
  EXPECT_EQ(from_bits(r.final_outputs, 4, 4), 0x5u);
  EXPECT_EQ(r.stats.garbled_non_xor, 0u);
}

TEST(SkipGateSequential, HaltWireStopsRun) {
  // 3-bit counter halts when it reaches 5; a Bob-owned register feeds through.
  CircuitBuilder cb;
  const auto cnt = cb.make_dff_bus(3);
  const auto reg = cb.make_dff_bus(4, netlist::Dff::Init::BobBit, 0);
  const Bus cur = cb.dff_out_bus(cnt);
  cb.set_dff_d_bus(cnt, inc(cb, cur));
  cb.set_dff_d_bus(reg, cb.dff_out_bus(reg));
  const Wire halt = cb.and_(cb.and_(cur[0], cur[2]), CircuitBuilder::not_(cur[1]));  // == 5
  cb.output(halt, "halt");
  cb.output_bus(cb.dff_out_bus(reg), "r");
  netlist::Netlist nl = cb.take();
  const netlist::WireId halt_wire = nl.outputs[0].wire;

  RunOptions opts;
  opts.halt_wire = halt_wire;
  opts.max_cycles = 100;
  SkipGateDriver driver(nl, opts);
  const RunResult r = driver.run({}, to_bits(0xC, 4));
  EXPECT_EQ(r.final_cycle, 5u);
  EXPECT_EQ(from_bits(r.final_outputs, 1, 4), 0xCu);
  EXPECT_EQ(r.stats.garbled_non_xor, 0u);  // counter is public throughout

  RunOptions bad = opts;
  bad.max_cycles = 3;
  SkipGateDriver bad_driver(nl, bad);
  EXPECT_THROW(bad_driver.run({}, to_bits(0xC, 4)), std::runtime_error);
}

TEST(SkipGateSequential, CommBytesMatchGarbledCount) {
  const netlist::Netlist nl = make_serial_adder();
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t) { return netlist::BitVec{true}; };
  streams.bob = [](std::uint64_t) { return netlist::BitVec{false}; };
  RunOptions opts;
  opts.fixed_cycles = 8;
  SkipGateDriver driver(nl, opts);
  const RunResult r = driver.run({}, {}, {}, &streams);
  // Half-gates: 2 blocks of 16 bytes per garbled gate.
  EXPECT_EQ(r.stats.comm.garbled_table_bytes, r.stats.garbled_non_xor * 32);
  EXPECT_GT(r.stats.comm.ot_bytes, 0u);      // Bob's streamed bits
  EXPECT_GT(r.stats.comm.output_bytes, 0u);  // per-cycle sum labels
}

// --- transports ----------------------------------------------------------------

void expect_results_identical(const RunResult& x, const RunResult& y) {
  EXPECT_EQ(x.sampled_outputs, y.sampled_outputs);
  EXPECT_EQ(x.final_outputs, y.final_outputs);
  EXPECT_EQ(x.final_cycle, y.final_cycle);
  EXPECT_EQ(x.stats.cycles, y.stats.cycles);
  EXPECT_EQ(x.stats.garbled_non_xor, y.stats.garbled_non_xor);
  EXPECT_EQ(x.stats.skipped_non_xor, y.stats.skipped_non_xor);
  EXPECT_EQ(x.stats.non_xor_slots, y.stats.non_xor_slots);
  // Table *content*, not just byte counts: the digest folds every garbled
  // block the garbler sent.
  EXPECT_TRUE(x.stats.table_digest == y.stats.table_digest);
  EXPECT_EQ(x.stats.ot_choices, y.stats.ot_choices);
  EXPECT_EQ(x.stats.ot_batches, y.stats.ot_batches);
  EXPECT_EQ(x.stats.comm.garbled_table_bytes, y.stats.comm.garbled_table_bytes);
  EXPECT_EQ(x.stats.comm.input_label_bytes, y.stats.comm.input_label_bytes);
  EXPECT_EQ(x.stats.comm.ot_bytes, y.stats.comm.ot_bytes);
  EXPECT_EQ(x.stats.comm.output_bytes, y.stats.comm.output_bytes);
}

TEST(SkipGateTransport, ThreadedPipeMatchesInMemorySerialAdder) {
  const netlist::Netlist nl = make_serial_adder();
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{((0xDEADBEEFu >> c) & 1u) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{((0x12345679u >> c) & 1u) != 0}; };
  for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
    RunOptions opts;
    opts.mode = mode;
    opts.fixed_cycles = 32;
    RunOptions topts = opts;
    topts.exec.transport = core::TransportKind::ThreadedPipe;
    const RunResult mem = SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
    const RunResult piped = SkipGateDriver(nl, topts).run({}, {}, {}, &streams);
    expect_results_identical(mem, piped);
  }
}

TEST(SkipGateTransport, ThreadedPipeMatchesInMemoryHaltDriven) {
  // Halt-driven run: both parties' planners must reach the same termination
  // decision independently.
  CircuitBuilder cb;
  const auto cnt = cb.make_dff_bus(3);
  const auto reg = cb.make_dff_bus(4, netlist::Dff::Init::BobBit, 0);
  const Bus cur = cb.dff_out_bus(cnt);
  cb.set_dff_d_bus(cnt, inc(cb, cur));
  cb.set_dff_d_bus(reg, cb.dff_out_bus(reg));
  cb.output(cb.and_(cb.and_(cur[0], cur[2]), CircuitBuilder::not_(cur[1])), "halt");
  cb.output_bus(cb.dff_out_bus(reg), "r");
  netlist::Netlist nl = cb.take();

  RunOptions opts;
  opts.halt_wire = nl.outputs[0].wire;
  opts.max_cycles = 100;
  RunOptions topts = opts;
  topts.exec.transport = core::TransportKind::ThreadedPipe;
  const RunResult mem = SkipGateDriver(nl, opts).run({}, to_bits(0xC, 4));
  const RunResult piped = SkipGateDriver(nl, topts).run({}, to_bits(0xC, 4));
  expect_results_identical(mem, piped);
  EXPECT_EQ(piped.final_cycle, 5u);

  // Failure on both sides (max_cycles exhausted) surfaces as the same error
  // the in-memory driver raises, not as a transport teardown artifact.
  RunOptions bad = topts;
  bad.max_cycles = 3;
  EXPECT_THROW(SkipGateDriver(nl, bad).run({}, to_bits(0xC, 4)), std::runtime_error);
}

TEST(SkipGateTransport, ThreadedPipeMatchesInMemoryRandomCircuits) {
  crypto::CtrRng rng(crypto::block_from_u64(777));
  for (int seed = 0; seed < 5; ++seed) {
    CircuitBuilder cb;
    const Bus a = cb.input_bus(netlist::Owner::Alice, 8, 0);
    const Bus b = cb.input_bus(netlist::Owner::Bob, 8, 0);
    cb.output_bus(mul_lower(cb, a, b, 8));
    const netlist::Netlist nl = cb.take();
    const netlist::BitVec av = to_bits(rng.next_u64(), 8);
    const netlist::BitVec bv = to_bits(rng.next_u64(), 8);
    RunOptions opts;
    opts.fixed_cycles = 1;
    RunOptions topts = opts;
    topts.exec.transport = core::TransportKind::ThreadedPipe;
    topts.exec.pipe_blocks = 64;  // force backpressure on a real circuit
    const RunResult mem = SkipGateDriver(nl, opts).run(av, bv);
    const RunResult piped = SkipGateDriver(nl, topts).run(av, bv);
    expect_results_identical(mem, piped);
  }
}

TEST(SkipGateTransport, LongRunKeepsTransportMemoryBounded) {
  // 4096 cycles of the serial adder move ~4096 garbled tables plus OT and
  // output traffic; the transport must never buffer more than one cycle's
  // frames (in-memory FIFOs self-compact; the threaded ring is bounded by
  // construction).
  const netlist::Netlist nl = make_serial_adder();
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 3) == 2}; };
  RunOptions opts;
  opts.fixed_cycles = 4096;
  const RunResult mem = SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
  EXPECT_GT(mem.stats.comm.total(), 4096u * 32);
  EXPECT_LE(mem.stats.transport_high_water_blocks, 16u);

  RunOptions topts = opts;
  topts.exec.transport = core::TransportKind::ThreadedPipe;
  topts.exec.pipe_blocks = 256;
  const RunResult piped = SkipGateDriver(nl, topts).run({}, {}, {}, &streams);
  expect_results_identical(mem, piped);
  EXPECT_LE(piped.stats.transport_high_water_blocks, 256u);
}

TEST(SkipGate, HalfGatesTablesAreTwoBlocks) {
  CircuitBuilder cb;
  const Bus a = cb.input_bus(netlist::Owner::Alice, 8, 0);
  const Bus b = cb.input_bus(netlist::Owner::Bob, 8, 0);
  cb.output_bus(mul_lower(cb, a, b, 8));
  const netlist::Netlist nl = cb.take();
  RunOptions opts;
  opts.fixed_cycles = 1;
  const RunResult r = SkipGateDriver(nl, opts).run(to_bits(13, 8), to_bits(11, 8));
  EXPECT_EQ(from_bits(r.final_outputs, 0, 8), (13u * 11u) & 0xFFu);
  EXPECT_EQ(r.stats.comm.garbled_table_bytes, r.stats.garbled_non_xor * 32);
}

}  // namespace
