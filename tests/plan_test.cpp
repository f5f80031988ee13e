// Plan determinism: SkipGate's bookkeeping is a deterministic public
// computation, so (a) two independent planners — one per party — must
// produce byte-identical CyclePlans from public data alone, and (b) a plan
// served from the cycle cache must be byte-identical to a freshly classified
// one. Both properties are exercised over randomized sequential netlists and
// through the full driver.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "arm/arm2gc.h"
#include "arm/assembler.h"
#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/plan.h"
#include "core/skipgate.h"
#include "crypto/rng.h"
#include "programs/programs.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using core::CyclePlan;
using core::Mode;
using core::Planner;
using core::PlannerOptions;
using a2gtest::to_bits;

void expect_plans_equal(const CyclePlan& x, const CyclePlan& y) {
  ASSERT_EQ(x.num_gates, y.num_gates);
  ASSERT_EQ(x.num_wires, y.num_wires);
  ASSERT_EQ(x.num_slices, y.num_slices);
  EXPECT_EQ(x.emitted, y.emitted);
  EXPECT_EQ(x.is_final, y.is_final);
  EXPECT_EQ(x.sample, y.sample);
  EXPECT_EQ(0, std::memcmp(x.wire_bits, y.wire_bits, x.num_wires));
  for (std::size_t si = 0; si < x.num_slices; ++si) {
    const core::PlanSlice& a = x.slices[si];
    const core::PlanSlice& b = y.slices[si];
    ASSERT_EQ(a.first_gate, b.first_gate);
    ASSERT_EQ(a.count, b.count);
    EXPECT_EQ(0, std::memcmp(a.act, b.act, a.count));
    EXPECT_EQ(0, std::memcmp(a.pass_src, b.pass_src, a.count * sizeof(netlist::WireId)));
    EXPECT_EQ(0, std::memcmp(a.emit, b.emit, a.count));
    EXPECT_EQ(0, std::memcmp(a.live, b.live, a.count));
    // The work list is the iteration set the sessions actually execute;
    // diverging lists would desynchronize the transport stream even with
    // identical emit/live bytes.
    ASSERT_EQ(a.work_count, b.work_count);
    if (a.work_count > 0) {
      ASSERT_NE(a.work, nullptr);
      ASSERT_NE(b.work, nullptr);
      EXPECT_EQ(0, std::memcmp(a.work, b.work, a.work_count * sizeof(std::uint32_t)));
    }
  }
}

/// Random sequential netlist: mixed-owner inputs, randomly initialized
/// flip-flops with random feedback, random 2-input gates and outputs.
/// `streamed_pub` adds that many per-cycle public inputs (bit indexes
/// 0..streamed_pub-1 of the pub stream) so entry states vary cycle to cycle.
netlist::Netlist random_seq_netlist(crypto::CtrRng& rng, std::uint32_t streamed_pub = 0) {
  netlist::Netlist nl;
  constexpr std::uint32_t kInPerParty = 3;
  for (std::uint32_t i = 0; i < kInPerParty; ++i) {
    nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Public, false, i, ""});
  }
  for (std::uint32_t i = 0; i < streamed_pub; ++i) {
    nl.inputs.push_back(netlist::Input{netlist::Owner::Public, true, i, ""});
  }
  constexpr std::uint32_t kDffs = 4;
  for (std::uint32_t i = 0; i < kDffs; ++i) {
    netlist::Dff d;
    switch (rng.next_below(4)) {
      case 0: d.init = netlist::Dff::Init::Zero; break;
      case 1: d.init = netlist::Dff::Init::One; break;
      case 2:
        d.init = netlist::Dff::Init::AliceBit;
        d.init_index = i;
        break;
      default:
        d.init = netlist::Dff::Init::BobBit;
        d.init_index = i;
        break;
    }
    nl.dffs.push_back(d);
  }
  const int num_gates = 30 + static_cast<int>(rng.next_below(30));
  for (int g = 0; g < num_gates; ++g) {
    const auto limit = static_cast<std::uint32_t>(2 + nl.inputs.size() + nl.dffs.size() +
                                                  static_cast<std::size_t>(g));
    nl.gates.push_back(netlist::Gate{static_cast<netlist::WireId>(rng.next_below(limit)),
                                     static_cast<netlist::WireId>(rng.next_below(limit)),
                                     static_cast<netlist::TruthTable>(rng.next_below(16))});
  }
  const auto nw = static_cast<std::uint32_t>(nl.num_wires());
  for (auto& d : nl.dffs) {
    d.d = static_cast<netlist::WireId>(rng.next_below(nw));
    d.d_invert = rng.next_bool();
  }
  for (int o = 0; o < 6; ++o) {
    nl.outputs.push_back(netlist::OutputPort{static_cast<netlist::WireId>(rng.next_below(nw)),
                                             rng.next_bool(), ""});
  }
  nl.outputs_every_cycle = rng.next_bool();
  return nl;
}

class RandomPlans : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlans, PartiesAndCacheAgree) {
  crypto::CtrRng rng(crypto::block_from_u64(static_cast<std::uint64_t>(GetParam()) * 104729 + 7));
  const netlist::Netlist nl = random_seq_netlist(rng);
  const netlist::BitVec pub = to_bits(rng.next_u64(), 4);

  for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
    PlannerOptions cached;
    cached.mode = mode;
    PlannerOptions fresh = cached;
    fresh.cache = false;

    // "Garbler-side" and "evaluator-side" planners (independent instances fed
    // identical public data) plus an uncached reference.
    Planner pg(nl, cached);
    Planner pe(nl, cached);
    Planner pf(nl, fresh);
    pg.reset(pub);
    pe.reset(pub);
    pf.reset(pub);

    constexpr std::uint64_t kCycles = 12;
    for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
      pg.begin_cycle({});
      pe.begin_cycle({});
      pf.begin_cycle({});
      pg.forward();
      pe.forward();
      pf.forward();
      const bool is_final = cycle + 1 == kCycles;
      const CyclePlan a = pg.finish(is_final);
      const CyclePlan b = pe.finish(is_final);
      const CyclePlan c = pf.finish(is_final);
      expect_plans_equal(a, b);
      expect_plans_equal(a, c);
      if (!is_final) {
        pg.latch(a);
        pe.latch(b);
        pf.latch(c);
      }
    }
    EXPECT_EQ(pg.cache_hits() + pg.cache_misses(), kCycles);
    EXPECT_EQ(pg.cache_hits(), pe.cache_hits());
    EXPECT_EQ(pf.cache_hits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlans, ::testing::Range(0, 25));

TEST(PlanCache, CounterStatesHitAfterSecondLap) {
  // 2-bit public counter: 4 distinct entry states, revisited cyclically.
  // The transient cache admits a state on its second sighting, so lap one
  // marks, lap two classifies into the cache, lap three onwards hits.
  builder::CircuitBuilder cb;
  const auto cnt = cb.make_dff_bus(2);
  cb.set_dff_d_bus(cnt, builder::inc(cb, cb.dff_out_bus(cnt)));
  cb.output_bus(cb.dff_out_bus(cnt), "q");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();

  Planner planner(nl, PlannerOptions{});
  planner.reset({});
  for (int cycle = 0; cycle < 10; ++cycle) {
    planner.begin_cycle({});
    planner.forward();
    const CyclePlan plan = planner.finish(/*is_final=*/cycle == 9);
    if (cycle != 9) planner.latch(plan);
  }
  EXPECT_EQ(planner.cache_misses(), 8u);
  EXPECT_EQ(planner.cache_hits(), 2u);
}

TEST(PlanCache, DriverResultsIdenticalWithAndWithoutCache) {
  crypto::CtrRng rng(crypto::block_from_u64(424242));
  for (int seed = 0; seed < 6; ++seed) {
    const netlist::Netlist nl = random_seq_netlist(rng);
    const netlist::BitVec a = to_bits(rng.next_u64(), 4);
    const netlist::BitVec b = to_bits(rng.next_u64(), 4);
    const netlist::BitVec p = to_bits(rng.next_u64(), 4);
    for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
      core::RunOptions on;
      on.mode = mode;
      on.fixed_cycles = 9;
      core::RunOptions off = on;
      off.exec.plan_cache = false;

      const core::RunResult r_on = core::SkipGateDriver(nl, on).run(a, b, p);
      const core::RunResult r_off = core::SkipGateDriver(nl, off).run(a, b, p);
      EXPECT_EQ(r_on.sampled_outputs, r_off.sampled_outputs);
      EXPECT_EQ(r_on.final_outputs, r_off.final_outputs);
      EXPECT_EQ(r_on.final_cycle, r_off.final_cycle);
      EXPECT_EQ(r_on.stats.garbled_non_xor, r_off.stats.garbled_non_xor);
      EXPECT_EQ(r_on.stats.comm.total(), r_off.stats.comm.total());
      EXPECT_EQ(r_off.stats.plan_cache_hits, 0u);
    }
  }
}

TEST(PlanCache, SerialAdderHitsEveryRepeatedCycle) {
  builder::CircuitBuilder cb;
  const auto carry = cb.make_dff(netlist::Dff::Init::Zero);
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const auto fa = builder::full_adder(cb, a, b, cb.dff_out(carry));
  cb.set_dff_d(carry, fa.carry);
  cb.output(fa.sum, "sum");
  cb.set_outputs_every_cycle(true);
  const netlist::Netlist nl = cb.take();

  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 2) != 0}; };
  core::RunOptions opts;
  opts.fixed_cycles = 32;
  const core::RunResult r = core::SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
  // Cycle 0 enters with a public zero carry; every later cycle enters with a
  // fresh secret carry — the same equivalence-class signature. That state is
  // marked on cycle 1, admitted on cycle 2, and served from the cache for
  // the remaining 29 cycles (the final cycle's distinct backward variant
  // shares the cached forward pass).
  EXPECT_EQ(r.stats.plan_cache_misses, 3u);
  EXPECT_EQ(r.stats.plan_cache_hits, 29u);
  EXPECT_EQ(r.stats.garbled_non_xor, 31u);  // unchanged by caching
}

TEST(PlanCache, SharedCacheWarmAcrossRuns) {
  // Cross-run reuse: the signature trajectory depends only on the netlist
  // and public inputs, so a second run with different *secret* inputs over a
  // shared cache hits on every cycle — and still computes correct results.
  crypto::CtrRng rng(crypto::block_from_u64(99991));
  const netlist::Netlist nl = random_seq_netlist(rng);
  const netlist::BitVec p = to_bits(rng.next_u64(), 4);
  // Role-scoped warm state (first-sight cache admission: built for reuse).
  core::WarmState warm(core::Role::Garbler);

  core::RunOptions opts;
  opts.fixed_cycles = 8;
  opts.exec.garbler_warm = &warm;

  netlist::BitVec first_outputs;
  for (int run = 0; run < 3; ++run) {
    const netlist::BitVec a = to_bits(rng.next_u64(), 4);
    const netlist::BitVec b = to_bits(rng.next_u64(), 4);
    const core::RunResult r = core::SkipGateDriver(nl, opts).run(a, b, p);

    core::RunOptions fresh = opts;
    fresh.exec.garbler_warm = nullptr;
    fresh.exec.plan_cache = false;
    const core::RunResult expect = core::SkipGateDriver(nl, fresh).run(a, b, p);
    EXPECT_EQ(r.sampled_outputs, expect.sampled_outputs);
    EXPECT_EQ(r.stats.garbled_non_xor, expect.stats.garbled_non_xor);
    if (run > 0) {
      EXPECT_EQ(r.stats.plan_cache_misses, 0u);
      EXPECT_EQ(r.stats.plan_cache_hits, 8u);
    }
  }
  EXPECT_GT(warm.plan_cache().entries(), 0u);
}

TEST(PlanCache, ArmSessionWarmsAcrossExecutions) {
  // The serving scenario end to end: one garbled ARM machine, one session,
  // repeated executions on fresh private inputs. Every run after the first
  // is fully served from the warm per-party caches, and results stay exact.
  const auto prog = arm::assemble(
      "ldr r4, [r0]\n"
      "ldr r5, [r1]\n"
      "add r4, r4, r5\n"
      "str r4, [r2]\n"
      "swi 0\n");
  arm::MemoryConfig cfg;
  cfg.imem_words = 16;
  cfg.alice_words = cfg.bob_words = cfg.out_words = 1;
  cfg.ram_words = 16;
  const arm::Arm2Gc machine(cfg, prog);

  arm::Arm2Gc::Session session(machine);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const arm::Arm2GcResult r =
        session.run(std::vector<std::uint32_t>{100 + i}, std::vector<std::uint32_t>{7 * i});
    EXPECT_EQ(r.outputs[0], 100 + i + 7 * i);
    if (i > 0) {
      EXPECT_EQ(r.stats.plan_cache_misses, 0u);
      EXPECT_EQ(r.stats.plan_cache_hits, r.cycles);
    }
  }

  core::ExecOptions exec;
  exec.transport = core::TransportKind::ThreadedPipe;
  arm::Arm2Gc::Session piped(machine, exec);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const arm::Arm2GcResult r =
        piped.run(std::vector<std::uint32_t>{5 + i}, std::vector<std::uint32_t>{9});
    EXPECT_EQ(r.outputs[0], 14 + i);
  }
}

TEST(PlanCache, WarmSessionCorrectUnderAdversarialEvictionBudgets) {
  // Coverage gap from PR 3: eviction *inside* a warm Arm2Gc::Session. A
  // 1-byte budget clamps both stores to their capacity floors (4 plans /
  // 8 cones), far below what one ARM run classifies, so every run churns
  // the LRU and later runs re-enter states whose entries were evicted —
  // and whose cones were re-admitted under fresh slice ids. Results must
  // stay exact across >= 3 runs (stale-slice adoption after eviction would
  // corrupt outputs or the garbled count/digest), hit ratios must stay
  // sane, and the stores must stay at their bounds.
  const auto prog = arm::assemble(
      "ldr r4, [r0]\n"
      "ldr r5, [r1]\n"
      "add r4, r4, r5\n"
      "str r4, [r2]\n"
      "swi 0\n");
  arm::MemoryConfig cfg;
  cfg.imem_words = 16;
  cfg.alice_words = cfg.bob_words = cfg.out_words = 1;
  cfg.ram_words = 16;
  const arm::Arm2Gc machine(cfg, prog);

  // Full-budget reference for the protocol-shape invariants.
  const arm::Arm2GcResult ref =
      machine.run(std::vector<std::uint32_t>{100}, std::vector<std::uint32_t>{0});

  core::WarmState::Options tiny;
  tiny.plan_cache_budget_bytes = 1;  // capacity floor: 4 entries
  tiny.cone_memo_budget_bytes = 1;   // capacity floor: 8 entries
  core::WarmState gwarm(core::Role::Garbler, tiny);
  core::WarmState ewarm(core::Role::Evaluator, tiny);
  core::ExecOptions exec;
  exec.garbler_warm = &gwarm;
  exec.evaluator_warm = &ewarm;
  arm::Arm2Gc::Session session(machine, exec);

  std::vector<double> hit_ratios;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const arm::Arm2GcResult r =
        session.run(std::vector<std::uint32_t>{100 + i}, std::vector<std::uint32_t>{7 * i});
    EXPECT_EQ(r.outputs[0], 100 + i + 7 * i) << "run " << i;
    EXPECT_EQ(r.cycles, ref.cycles) << "run " << i;
    EXPECT_EQ(r.stats.garbled_non_xor, ref.stats.garbled_non_xor) << "run " << i;
    EXPECT_EQ(r.stats.comm.total(), ref.stats.comm.total()) << "run " << i;
    // Sane ratios: bounded by [0,1), since the run's distinct states exceed
    // the 4-entry cache — a 100% hit rate would indicate aliasing.
    const double hr = r.stats.plan_cache_hit_ratio();
    EXPECT_GE(hr, 0.0);
    EXPECT_LT(hr, 1.0) << "run " << i;
    EXPECT_LE(r.stats.cone_hit_ratio(), 1.0);
    hit_ratios.push_back(hr);
    EXPECT_LE(gwarm.plan_cache().entries(), gwarm.plan_cache().capacity());
    EXPECT_LE(gwarm.cone_memo().entries(), gwarm.cone_memo().capacity());
  }
  // Monotone-sane trajectory: warm runs never do worse than the cold first
  // run, and the deterministic churn reaches a steady state (the repeating
  // trajectory leaves the same LRU composition after every run).
  for (std::size_t i = 1; i < hit_ratios.size(); ++i) {
    EXPECT_GE(hit_ratios[i], hit_ratios[0]) << "run " << i;
  }
  EXPECT_DOUBLE_EQ(hit_ratios[2], hit_ratios[1]);
  EXPECT_DOUBLE_EQ(hit_ratios[3], hit_ratios[2]);
  EXPECT_EQ(gwarm.plan_cache().capacity(), 4u);
  EXPECT_EQ(gwarm.cone_memo().capacity(), 8u);
  EXPECT_GT(gwarm.plan_cache().evictions(), 0u);
  EXPECT_GT(gwarm.cone_memo().evictions(), 0u);
}

TEST(PlanCache, XorRelationAmongRootsDoesNotAliasStates) {
  // Regression: two entry states can have identical public values, flips and
  // fingerprint *equality classes* while differing in XOR-linear structure —
  // d3 holding exactly fp(d1)^fp(d2) versus an independent secret. A cache
  // keyed on equality classes alone replays the relation-state plan (which
  // collapses AND(d1^d2, d3) as category iii) in the independent state,
  // silently corrupting results. The signature must encode the XOR relation.
  //
  // d1, d2 hold party secrets; d3.d = MUX(pub_sel, d1^d2, fresh Bob stream).
  // The output AND(d1^d2, d3) collapses only in the relation state.
  builder::CircuitBuilder cb;
  const auto d1 = cb.make_dff(netlist::Dff::Init::AliceBit, 0);
  const auto d2 = cb.make_dff(netlist::Dff::Init::BobBit, 0);
  const auto d3 = cb.make_dff(netlist::Dff::Init::BobBit, 1);
  const builder::Wire sel = cb.input(netlist::Owner::Public, 0, /*streamed=*/true);
  const builder::Wire fresh = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const builder::Wire x = cb.xor_(cb.dff_out(d1), cb.dff_out(d2));
  cb.set_dff_d(d1, cb.dff_out(d1));
  cb.set_dff_d(d2, cb.dff_out(d2));
  cb.set_dff_d(d3, cb.mux(sel, x, fresh));
  cb.output(cb.and_(x, cb.dff_out(d3)), "y");
  cb.set_outputs_every_cycle(true);
  const netlist::WireId xw = x.id;
  const netlist::WireId d3w = cb.dff_out(d3).id;
  netlist::Netlist nl = cb.take();
  // Also cover the affine ignore-one-input case: a raw tt="b" gate whose
  // category-iii collapse (PassA when fp(x)==fp(d3)) silently passes the
  // wrong wire after drift unless the hit verifier re-checks it. Appended at
  // netlist level — the builder would fold the trivial table away.
  nl.gates.push_back(netlist::Gate{xw, d3w, netlist::kTtB});
  nl.outputs.push_back(netlist::OutputPort{
      nl.gate_wire(nl.gates.size() - 1), false, "d3_through_b"});

  // sel = 1,1,1,0,1: cycles 2 and 3 enter the relation state (sel=1) — the
  // second sighting admits its plan — and cycle 4 latches an independent d3
  // yet re-enters with sel=1 on cycle... (the hazard cycle is the one whose
  // entry is (independent d3, same publics)). Walk several sel/input
  // patterns and compare against the uncached driver on every cycle.
  const std::vector<bool> sel_stream = {true, true, true, false, true, true, false, true};
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    crypto::CtrRng rng(crypto::block_from_u64(seed * 7 + 3));
    const netlist::BitVec alice = {rng.next_bool()};
    const netlist::BitVec bob = {rng.next_bool(), rng.next_bool()};
    core::StreamProvider streams;
    streams.pub = [&](std::uint64_t c) { return netlist::BitVec{sel_stream[c]}; };
    streams.bob = [&, seed](std::uint64_t c) {
      return netlist::BitVec{((seed >> (c % 3)) & 1) != 0};
    };
    core::RunOptions cached;
    cached.fixed_cycles = sel_stream.size();
    core::RunOptions uncached = cached;
    uncached.exec.plan_cache = false;
    const core::RunResult rc =
        core::SkipGateDriver(nl, cached).run(alice, bob, {}, &streams);
    const core::RunResult ru =
        core::SkipGateDriver(nl, uncached).run(alice, bob, {}, &streams);
    EXPECT_EQ(rc.sampled_outputs, ru.sampled_outputs) << "seed " << seed;
    EXPECT_EQ(rc.stats.garbled_non_xor, ru.stats.garbled_non_xor) << "seed " << seed;
  }
}

TEST(PlanCache, RejectsReuseAcrossNetlists) {
  crypto::CtrRng rng(crypto::block_from_u64(31337));
  const netlist::Netlist nl1 = random_seq_netlist(rng);
  netlist::Netlist nl2 = nl1;
  nl2.gates.push_back(netlist::Gate{netlist::kConst0, netlist::kConst1, netlist::kTtAnd});
  core::PlanCache cache;
  PlannerOptions opts;
  opts.shared_cache = &cache;
  Planner p1(nl1, opts);
  EXPECT_THROW(Planner p2(nl2, opts), std::invalid_argument);
}

// --- cone-granular incremental planning ----------------------------------------

/// Builds a netlist whose entry state is controlled by a `width`-bit
/// streamed public selector mixed with party secrets, so each selector
/// value is a distinct entry state with a non-trivial plan.
netlist::Netlist selector_netlist(std::uint32_t width) {
  builder::CircuitBuilder cb;
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0);
  builder::Bus sel;
  for (std::uint32_t i = 0; i < width; ++i) {
    sel.push_back(cb.input(netlist::Owner::Public, i, /*streamed=*/true));
  }
  builder::Wire acc = cb.and_(a, b);
  for (const builder::Wire s : sel) acc = cb.and_(cb.xor_(acc, s), cb.or_(a, s));
  cb.output(acc, "y");
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

TEST(PlanCache, LruEvictionBoundsEntries) {
  // A 1-byte budget clamps to the 4-entry capacity floor. Drive the 8
  // distinct selector states once each: the cache holds only the last 4
  // (evicting the first 4), so revisiting recent states hits and revisiting
  // the oldest one misses and re-evicts.
  const netlist::Netlist nl = selector_netlist(3);
  core::PlanCache cache(1);  // first-sight admission, capacity floor of 4
  PlannerOptions opts;
  opts.shared_cache = &cache;
  Planner planner(nl, opts);
  planner.reset({});

  const auto drive = [&](std::uint64_t v) {
    planner.begin_cycle(to_bits(v, 3));
    planner.forward();
    (void)planner.finish(/*is_final=*/false);
  };
  for (std::uint64_t v = 0; v < 8; ++v) drive(v);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.evictions(), 4u);
  EXPECT_EQ(planner.cache_hits(), 0u);

  for (const std::uint64_t v : {7u, 6u, 5u, 4u}) drive(v);  // the retained four
  EXPECT_EQ(planner.cache_hits(), 4u);
  drive(0);  // evicted on state 4's insertion
  EXPECT_EQ(planner.cache_hits(), 4u);
  EXPECT_EQ(cache.entries(), 4u);
  EXPECT_EQ(cache.evictions(), 5u);
}

TEST(ConeMemo, LruEvictionBoundsEntries) {
  // Same structure at cone granularity: a 1-byte budget clamps to the
  // 8-entry floor; the 16 distinct selector states keep only the last 8.
  const netlist::Netlist nl = selector_netlist(4);
  core::ConeMemo memo(1);  // capacity floor of 8
  PlannerOptions opts;
  opts.cache = false;  // exercise the memo on every cycle
  opts.shared_cone_memo = &memo;
  Planner planner(nl, opts);
  planner.reset({});

  const auto drive = [&](std::uint64_t v) {
    planner.begin_cycle(to_bits(v, 4));
    planner.forward();
    (void)planner.finish(/*is_final=*/false);
  };
  ASSERT_EQ(planner.layout().segments.size(), 1u);
  for (std::uint64_t v = 0; v < 16; ++v) drive(v);
  EXPECT_EQ(memo.capacity(), 8u);
  EXPECT_EQ(memo.entries(), 8u);
  EXPECT_EQ(memo.evictions(), 8u);
  EXPECT_EQ(planner.cone_hits(), 0u);
  EXPECT_EQ(planner.cone_misses(), 16u);

  for (std::uint64_t v = 15; v >= 8; --v) drive(v);  // the retained eight
  EXPECT_EQ(planner.cone_hits(), 8u);
  EXPECT_EQ(memo.evictions(), 8u);
  drive(0);  // evicted: reclassified and re-admitted, evicting the LRU
  EXPECT_EQ(planner.cone_hits(), 8u);
  EXPECT_EQ(planner.cone_misses(), 17u);
  EXPECT_EQ(memo.entries(), 8u);
  EXPECT_EQ(memo.evictions(), 9u);
}

/// `chains` independent selector chains, each built as its own contiguous
/// run of gates over its own secrets and its own `width`-bit streamed public
/// selector — so a small cone target cuts several segments per netlist and
/// each chain's selector value picks its segments' memo keys independently.
netlist::Netlist multi_selector_netlist(std::uint32_t chains, std::uint32_t width) {
  builder::CircuitBuilder cb;
  for (std::uint32_t k = 0; k < chains; ++k) {
    const builder::Wire a = cb.input(netlist::Owner::Alice, k);
    const builder::Wire b = cb.input(netlist::Owner::Bob, k);
    builder::Wire acc = cb.and_(a, b);
    for (std::uint32_t i = 0; i < width; ++i) {
      const builder::Wire s = cb.input(netlist::Owner::Public, k * width + i, /*streamed=*/true);
      acc = cb.and_(cb.xor_(acc, s), cb.or_(a, s));
    }
    cb.output(acc, std::string(1, static_cast<char>('a' + k)));
  }
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

TEST(ConeMemo, LruPolicyUnderPressureAcrossSegments) {
  // A saturated memo on a multi-segment netlist, as on MatrixMult3x3 warm
  // runs (every cone miss evicts). Within one cycle every dirty segment
  // probes the memo first; the cycle's LRU touches and inserts are then
  // committed in ascending segment order. So a segment may hit an entry
  // that an earlier segment's insert evicts in the same cycle. The exact
  // per-cycle counter sequence below changes if that policy changes.
  constexpr std::uint32_t kChains = 4;
  constexpr std::uint32_t kWidth = 2;
  const netlist::Netlist nl = multi_selector_netlist(kChains, kWidth);
  core::ConeMemo memo(1);  // capacity floor of 8
  PlannerOptions opts;
  opts.cache = false;  // exercise the memo on every cycle
  opts.shared_cone_memo = &memo;
  opts.cone_target_gates = 4;
  Planner planner(nl, opts);
  planner.reset({});
  ASSERT_GT(planner.layout().segments.size(), 4u);

  crypto::CtrRng rng(crypto::block_from_u64(161803));
  std::vector<std::array<std::uint64_t, 3>> seen;
  for (int cycle = 0; cycle < 40; ++cycle) {
    planner.begin_cycle(to_bits(rng.next_u64(), kChains * kWidth));
    planner.forward();
    planner.latch(planner.finish(/*is_final=*/false));
    seen.push_back({planner.cone_hits(), planner.cone_misses(), memo.evictions()});
  }
  const std::vector<std::array<std::uint64_t, 3>> expected = {
      {0, 5, 0}, {0, 10, 2}, {0, 15, 7}, {3, 17, 9}, {6, 19, 11}, {7, 23, 15}, {9, 26, 18},
      {10, 30, 22}, {11, 34, 26}, {11, 39, 31}, {11, 44, 36}, {13, 47, 39}, {15, 50, 42},
      {16, 54, 46}, {16, 59, 51}, {18, 62, 54}, {18, 67, 59}, {18, 72, 64}, {18, 77, 69},
      {18, 82, 74}, {18, 87, 79}, {19, 91, 83}, {19, 96, 88}, {22, 98, 90}, {24, 101, 93},
      {25, 105, 97}, {25, 110, 102}, {28, 112, 104}, {32, 113, 105}, {32, 118, 110},
      {32, 123, 115}, {33, 127, 119}, {34, 131, 123}, {35, 135, 127}, {37, 138, 130},
      {39, 141, 133}, {39, 146, 138}, {40, 150, 142}, {44, 151, 143}, {45, 155, 147},
  };
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(memo.entries(), memo.capacity());
}

TEST(ConeMemo, RejectsReuseAcrossNetlistsAndLayouts) {
  crypto::CtrRng rng(crypto::block_from_u64(27182));
  const netlist::Netlist nl1 = random_seq_netlist(rng);
  netlist::Netlist nl2 = nl1;
  nl2.gates.push_back(netlist::Gate{netlist::kConst0, netlist::kConst1, netlist::kTtAnd});
  core::ConeMemo memo;
  PlannerOptions opts;
  opts.shared_cone_memo = &memo;
  Planner p1(nl1, opts);
  EXPECT_THROW(Planner p2(nl2, opts), std::invalid_argument);
  // Same netlist, different segmentation: also a different plan contract.
  PlannerOptions finer = opts;
  finer.cone_target_gates = 4;
  EXPECT_THROW(Planner p3(nl1, finer), std::invalid_argument);
}

TEST(ConeMemo, WarmStateIsRoleScoped) {
  const netlist::Netlist nl = selector_netlist(3);
  core::WarmState gwarm(core::Role::Garbler);

  // One WarmState cannot serve both parties: the threaded driver would race
  // on it and the lock-step driver would alias the per-party caches.
  core::RunOptions shared;
  shared.fixed_cycles = 1;
  shared.exec.transport = core::TransportKind::ThreadedPipe;
  shared.exec.garbler_warm = &gwarm;
  shared.exec.evaluator_warm = &gwarm;
  EXPECT_THROW(core::SkipGateDriver(nl, shared).run({false}, {false}), std::invalid_argument);

  // A wrong-role WarmState is rejected by the endpoint on every transport.
  core::RunOptions swapped;
  swapped.fixed_cycles = 1;
  swapped.exec.evaluator_warm = &gwarm;  // garbler-role state, evaluator slot
  EXPECT_THROW(core::SkipGateDriver(nl, swapped).run({false}, {false}), std::invalid_argument);
  core::RunOptions piped = swapped;
  piped.exec.transport = core::TransportKind::ThreadedPipe;
  EXPECT_THROW(core::SkipGateDriver(nl, piped).run({false}, {false}), std::invalid_argument);
}

/// Differential fuzz (both party sides): randomized sequential netlists
/// driven through randomized public-input sequences; the incremental
/// (cone-stitched, segmented) plan must be byte-equal to a from-scratch
/// plan on every cycle. A2G_PLAN_FUZZ_SEEDS scales the sweep (CI sanitizer
/// job runs a deeper pass).
TEST(ConeDifferentialFuzz, StitchedPlansByteEqualFromScratchEveryCycle) {
  int seeds = 12;
  if (const char* env = std::getenv("A2G_PLAN_FUZZ_SEEDS")) seeds = std::atoi(env);
  constexpr std::uint64_t kCycles = 20;
  constexpr std::uint32_t kStreamedPub = 3;

  for (int seed = 0; seed < seeds; ++seed) {
    crypto::CtrRng rng(crypto::block_from_u64(static_cast<std::uint64_t>(seed) * 65537 + 11));
    const netlist::Netlist nl = random_seq_netlist(rng, kStreamedPub);
    const netlist::BitVec pub = to_bits(rng.next_u64(), 4);
    std::vector<netlist::BitVec> pub_streams;
    for (std::uint64_t c = 0; c < kCycles; ++c) {
      pub_streams.push_back(to_bits(rng.next_u64(), kStreamedPub));
    }

    for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
      PlannerOptions inc;
      inc.mode = mode;
      inc.cone_target_gates = 4;  // force several segments on small netlists
      PlannerOptions fresh = inc;
      fresh.cache = false;
      fresh.cone_memo = false;

      // Garbler-side and evaluator-side incremental planners (independent
      // instances fed identical public data) plus a from-scratch reference.
      Planner pg(nl, inc);
      Planner pe(nl, inc);
      Planner pf(nl, fresh);
      pg.reset(pub);
      pe.reset(pub);
      pf.reset(pub);

      for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
        const netlist::BitVec& sp = pub_streams[cycle];
        pg.begin_cycle(sp);
        pe.begin_cycle(sp);
        pf.begin_cycle(sp);
        pg.forward();
        pe.forward();
        pf.forward();
        const bool is_final = cycle + 1 == kCycles;
        const CyclePlan a = pg.finish(is_final);
        const CyclePlan b = pe.finish(is_final);
        const CyclePlan c = pf.finish(is_final);
        expect_plans_equal(a, b);
        expect_plans_equal(a, c);
        if (!is_final) {
          pg.latch(a);
          pe.latch(b);
          pf.latch(c);
        }
      }
      ASSERT_GT(pg.layout().segments.size(), 1u) << "seed " << seed;
      EXPECT_GT(pg.cone_hits() + pg.cone_misses(), 0u) << "seed " << seed;
      EXPECT_EQ(pg.cone_hits(), pe.cone_hits()) << "seed " << seed;
    }
  }
}

TEST(ConeMemo, DriverResultsIdenticalWithConeMemoOnAndOff) {
  // Acceptance pin: the full protocol produces bit-identical outputs,
  // garbled_non_xor counts and communication bytes with cone memoization
  // enabled vs disabled, on randomized sequential circuits with per-cycle
  // public inputs (so whole-netlist cache misses occur and cones matter).
  crypto::CtrRng rng(crypto::block_from_u64(515253));
  for (int seed = 0; seed < 4; ++seed) {
    const netlist::Netlist nl = random_seq_netlist(rng, 2);
    const netlist::BitVec a = to_bits(rng.next_u64(), 4);
    const netlist::BitVec b = to_bits(rng.next_u64(), 4);
    const netlist::BitVec p = to_bits(rng.next_u64(), 4);
    const std::uint64_t pub_word = rng.next_u64();
    core::StreamProvider streams;
    streams.pub = [&](std::uint64_t c) { return to_bits(pub_word >> (2 * c), 2); };

    for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
      core::RunOptions on;
      on.mode = mode;
      on.fixed_cycles = 12;
      on.exec.cone_target_gates = 4;
      core::RunOptions off = on;
      off.exec.cone_memo = false;

      const core::RunResult r_on = core::SkipGateDriver(nl, on).run(a, b, p, &streams);
      const core::RunResult r_off = core::SkipGateDriver(nl, off).run(a, b, p, &streams);
      EXPECT_EQ(r_on.sampled_outputs, r_off.sampled_outputs);
      EXPECT_EQ(r_on.final_outputs, r_off.final_outputs);
      EXPECT_EQ(r_on.stats.garbled_non_xor, r_off.stats.garbled_non_xor);
      EXPECT_EQ(r_on.stats.skipped_non_xor, r_off.stats.skipped_non_xor);
      EXPECT_EQ(r_on.stats.comm.total(), r_off.stats.comm.total());
      EXPECT_EQ(r_off.stats.cone_hits + r_off.stats.cone_misses, 0u);
    }
  }
}

TEST(ConeMemo, ArmConeHitsOnCyclesTheFlatCacheMissed) {
  // The headline scenario (an ARM loop workload): a cold run's cycles are
  // distinct whole-netlist entry states — loop iterations differ in the
  // public counter — so the flat PlanCache misses on every cycle, but most
  // of the 42k-gate core's cones recur across iterations and stitch from
  // the memo.
  const programs::Program prog = programs::hamming(2);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const std::vector<std::uint32_t> a = {0xDEADBEEFu, 0x0F0F0F0Fu};
  const std::vector<std::uint32_t> b = {0x12345678u, 0xFF00FF00u};
  const arm::Arm2GcResult expect = machine.run_reference(a, b);

  core::ExecOptions cone_on;
  core::ExecOptions cone_off;
  cone_off.cone_memo = false;
  const arm::Arm2GcResult r_on =
      machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, cone_on);
  const arm::Arm2GcResult r_off =
      machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, cone_off);

  EXPECT_EQ(r_on.outputs, expect.outputs);
  EXPECT_EQ(r_on.outputs, r_off.outputs);
  EXPECT_EQ(r_on.cycles, r_off.cycles);
  EXPECT_EQ(r_on.stats.garbled_non_xor, r_off.stats.garbled_non_xor);
  EXPECT_EQ(r_on.stats.comm.total(), r_off.stats.comm.total());
  // The transient flat cache misses on every first-seen state (the loop
  // counter makes every cycle's whole-netlist state distinct)...
  EXPECT_GT(r_on.stats.plan_cache_misses, 0u);
  // ...and the cone memo converts most of each missed cycle's cones into
  // cone hits.
  EXPECT_GT(r_on.stats.cone_hits, 0u);
  EXPECT_GT(r_on.stats.cone_hit_ratio(), 0.4);  // measured 0.49 (deterministic)
  EXPECT_EQ(r_off.stats.cone_hits + r_off.stats.cone_misses, 0u);
}

}  // namespace
