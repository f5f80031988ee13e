// Plan determinism: SkipGate's bookkeeping is a deterministic public
// computation, so (a) two independent planners — one per party — must
// produce byte-identical CyclePlans from public data alone, and (b) a plan
// served from the cycle cache must be byte-identical to a freshly classified
// one. Both properties are exercised over randomized sequential netlists and
// through the full driver.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
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
  EXPECT_EQ(x.emitted, y.emitted);
  EXPECT_EQ(x.is_final, y.is_final);
  EXPECT_EQ(x.sample, y.sample);
  EXPECT_EQ(0, std::memcmp(x.wire_bits, y.wire_bits, x.num_wires));
  EXPECT_EQ(0, std::memcmp(x.act, y.act, x.num_gates));
  EXPECT_EQ(0, std::memcmp(x.pass_src, y.pass_src, x.num_gates * sizeof(netlist::WireId)));
  EXPECT_EQ(0, std::memcmp(x.emit, y.emit, x.num_gates));
  EXPECT_EQ(0, std::memcmp(x.live, y.live, x.num_gates));
  // The work list is the iteration set the sessions actually execute;
  // diverging lists would desynchronize the transport stream even with
  // identical emit/live bytes.
  ASSERT_EQ(x.work_count, y.work_count);
  if (x.work_count > 0) {
    EXPECT_EQ(0, std::memcmp(x.work, y.work, x.work_count * sizeof(std::uint32_t)));
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
  // Role-scoped warm states (first-sight cache admission: built for reuse).
  // The evaluator's is needed too: the garbler's IKNP state stays based
  // across runs, so its receiver-side pair must as well.
  core::WarmState warm(core::Role::Garbler);
  core::WarmState ewarm(core::Role::Evaluator);

  core::RunOptions opts;
  opts.fixed_cycles = 8;
  opts.exec.garbler_warm = &warm;
  opts.exec.evaluator_warm = &ewarm;

  netlist::BitVec first_outputs;
  for (int run = 0; run < 3; ++run) {
    const netlist::BitVec a = to_bits(rng.next_u64(), 4);
    const netlist::BitVec b = to_bits(rng.next_u64(), 4);
    const core::RunResult r = core::SkipGateDriver(nl, opts).run(a, b, p);

    core::RunOptions fresh = opts;
    fresh.exec.garbler_warm = nullptr;
    fresh.exec.evaluator_warm = nullptr;
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

  // The same warm serving with the endpoints on two threads, one fresh
  // socketpair per run and each party planning on its own.
  core::WarmState gwarm(core::Role::Garbler);
  core::WarmState ewarm(core::Role::Evaluator);
  for (std::uint32_t i = 0; i < 2; ++i) {
    arm::Arm2GcResult r;
    (void)a2gtest::run_two_threads(
        [&](gc::Transport& tx) {
          r = machine.run_garbler(std::vector<std::uint32_t>{5 + i}, tx,
                                  machine.party_options(core::Role::Garbler), &gwarm);
        },
        [&](gc::Transport& tx) {
          (void)machine.run_evaluator(std::vector<std::uint32_t>{9}, tx,
                                      machine.party_options(core::Role::Evaluator), &ewarm);
        });
    EXPECT_EQ(r.outputs[0], 14 + i);
  }
}

TEST(PlanCache, WarmSessionCorrectUnderAdversarialEvictionBudgets) {
  // Eviction *inside* a warm Arm2Gc::Session. A 1-byte budget clamps the
  // plan cache to its 4-entry floor, far below what one ARM run classifies,
  // so every run churns the LRU and later runs re-enter states whose
  // entries were evicted. Results must stay exact across >= 3 runs (a stale
  // entry served after eviction would corrupt outputs or the garbled
  // count/digest), hit ratios must stay sane, and the cache must stay at
  // its bound.
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

  // Full-budget reference session for the protocol-shape invariants: its
  // IKNP state warms in step with the session under test (base OTs on the
  // first run only), so per-run OT bytes match too.
  arm::Arm2Gc::Session ref_session(machine);

  core::WarmState::Options tiny;
  tiny.plan_cache_budget_bytes = 1;  // capacity floor: 4 entries
  core::WarmState gwarm(core::Role::Garbler, tiny);
  core::WarmState ewarm(core::Role::Evaluator, tiny);
  core::ExecOptions exec;
  exec.garbler_warm = &gwarm;
  exec.evaluator_warm = &ewarm;
  arm::Arm2Gc::Session session(machine, exec);

  std::vector<double> hit_ratios;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::vector<std::uint32_t> alice{100 + i};
    const std::vector<std::uint32_t> bob{7 * i};
    const arm::Arm2GcResult r = session.run(alice, bob);
    const arm::Arm2GcResult ref = ref_session.run(alice, bob);
    EXPECT_EQ(r.outputs[0], 100 + i + 7 * i) << "run " << i;
    EXPECT_EQ(r.cycles, ref.cycles) << "run " << i;
    EXPECT_EQ(r.stats.garbled_non_xor, ref.stats.garbled_non_xor) << "run " << i;
    EXPECT_EQ(r.stats.comm.total(), ref.stats.comm.total()) << "run " << i;
    // Sane ratios: bounded by [0,1), since the run's distinct states exceed
    // the 4-entry cache — a 100% hit rate would indicate aliasing.
    const double hr = r.stats.plan_cache_hit_ratio();
    EXPECT_GE(hr, 0.0);
    EXPECT_LT(hr, 1.0) << "run " << i;
    hit_ratios.push_back(hr);
    EXPECT_LE(gwarm.plan_cache().entries(), gwarm.plan_cache().capacity());
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
  EXPECT_GT(gwarm.plan_cache().evictions(), 0u);
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

TEST(WarmState, IsRoleScoped) {
  const netlist::Netlist nl = selector_netlist(3);
  core::WarmState gwarm(core::Role::Garbler);

  // One WarmState cannot serve both parties (they would alias the per-party
  // caches): it has the wrong role for one of the two slots.
  core::RunOptions shared;
  shared.fixed_cycles = 1;
  shared.exec.garbler_warm = &gwarm;
  shared.exec.evaluator_warm = &gwarm;
  EXPECT_THROW(core::SkipGateDriver(nl, shared).run({false}, {false}), std::invalid_argument);

  // A wrong-role WarmState is rejected by the endpoint.
  core::RunOptions swapped;
  swapped.fixed_cycles = 1;
  swapped.exec.evaluator_warm = &gwarm;  // garbler-role state, evaluator slot
  EXPECT_THROW(core::SkipGateDriver(nl, swapped).run({false}, {false}), std::invalid_argument);
}

/// What one planner-only replay of a program's trajectory produced.
struct Trajectory {
  std::uint64_t digest = 1469598103934665603ull;  ///< FNV-1a over every cycle's plan
  std::uint64_t cycles = 0;
  std::uint64_t hits = 0;
};

void fold(Trajectory& t, const void* p, std::size_t n) {
  for (const auto* b = static_cast<const unsigned char*>(p); n-- > 0; ++b) {
    t.digest = (t.digest ^ *b) * 1099511628211ull;
  }
}

/// Replays the planner alone over an ARM program's halt-driven trajectory,
/// the way each party endpoint drives it (reset, then begin / forward /
/// finish / latch per cycle until the public halt wire rises), and folds
/// every cycle's plan into one digest: `emitted`, the work list with each
/// listed gate's act, emit bit and pass source, and all of `wire_bits`.
Trajectory replay(const arm::CpuNetlist& cpu, const PlannerOptions& opts) {
  Trajectory t;
  Planner planner(cpu.nl, opts);
  planner.reset({});
  for (bool is_final = false; !is_final && t.cycles < 4096; ++t.cycles) {
    planner.begin_cycle({});
    planner.forward();
    EXPECT_TRUE(planner.wire_public(cpu.halt_wire));
    is_final = planner.wire_value(cpu.halt_wire);
    const CyclePlan plan = planner.finish(is_final);
    fold(t, &plan.emitted, sizeof plan.emitted);
    for (std::size_t k = 0; k < plan.work_count; ++k) {
      const std::uint32_t i = plan.work[k];
      fold(t, &i, sizeof i);
      fold(t, &plan.act[i], 1);
      fold(t, &plan.emit[i], 1);
      fold(t, &plan.pass_src[i], sizeof plan.pass_src[i]);
    }
    fold(t, plan.wire_bits, plan.num_wires);
    if (!is_final) planner.latch(plan);
  }
  t.hits = planner.cache_hits();
  return t;
}

TEST(PlanTrajectory, WholeRunPlansMatchRecordedDigests) {
  // Every cycle's plan of two real programs, pinned by digest: uncached,
  // through a transient per-run cache, and through a shared cache on a cold
  // and then a warm run (Hamming-160's warm run is served entirely from
  // hits; MatrixMult3's trajectory outgrows the budget, so its warm run
  // recycles evicted entries instead).
  const struct {
    programs::Program prog;
    std::uint64_t cycles;
    std::uint64_t digest;
  } cases[] = {
      {programs::hamming(5), 97, 0x367646a3cb8d6f95ull},
      {programs::matmult(3), 316, 0x6699814b124a5656ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.prog.name);
    const arm::Arm2Gc machine(c.prog.cfg, c.prog.words);
    PlannerOptions uncached;
    uncached.cache = false;
    const Trajectory ref = replay(machine.cpu(), uncached);
    EXPECT_EQ(ref.cycles, c.cycles);
    EXPECT_EQ(ref.digest, c.digest);
    EXPECT_EQ(replay(machine.cpu(), PlannerOptions{}).digest, c.digest);

    core::PlanCache shared;
    PlannerOptions warm;
    warm.shared_cache = &shared;
    EXPECT_EQ(replay(machine.cpu(), warm).digest, c.digest);
    const Trajectory second = replay(machine.cpu(), warm);
    EXPECT_EQ(second.digest, c.digest);
    if (c.cycles < shared.capacity()) {
      EXPECT_EQ(second.hits, c.cycles);
    }
  }
}

/// A public-select multiplexer f ^ (s & (t ^ f)) with s = 1, whose selected
/// side reaches the final XOR through a chain of `hops` pass gates: the
/// AND with the public select, then hops - 1 further ANDs with it.
netlist::Netlist pass_chain_mux(std::uint32_t hops) {
  netlist::Netlist nl;
  nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, 0, "t"});
  nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, 0, "f"});
  nl.inputs.push_back(netlist::Input{netlist::Owner::Public, false, 0, "s"});
  const netlist::WireId t = nl.input_wire(0);
  const netlist::WireId f = nl.input_wire(1);
  const netlist::WireId s = nl.input_wire(2);
  nl.gates.push_back(netlist::Gate{t, f, netlist::kTtXor});
  for (std::uint32_t h = 0; h < hops; ++h) {
    nl.gates.push_back(netlist::Gate{s, nl.gate_wire(nl.gates.size() - 1), netlist::kTtAnd});
  }
  nl.gates.push_back(netlist::Gate{f, nl.gate_wire(nl.gates.size() - 1), netlist::kTtXor});
  nl.outputs.push_back(netlist::OutputPort{nl.gate_wire(nl.gates.size() - 1), false, "y"});
  return nl;
}

TEST(PlanCancellation, PassChainCapIsSixtyFourHops) {
  // The XOR-cancellation peephole follows at most 64 pass hops back to the
  // FreeXor it cancels against: at 64 the mux collapses to a wire carrying
  // t, at 65 it stays a free XOR. Cached (the second cycle is a verified
  // hit) and uncached planners must agree.
  for (const std::uint32_t hops : {64u, 65u}) {
    SCOPED_TRACE(hops);
    const netlist::Netlist nl = pass_chain_mux(hops);
    const std::size_t mux = nl.gates.size() - 1;
    core::PlanCache cache;
    PlannerOptions cached;
    cached.shared_cache = &cache;
    PlannerOptions uncached;
    uncached.cache = false;
    for (const PlannerOptions& opts : {cached, uncached}) {
      Planner planner(nl, opts);
      planner.reset({true});
      for (int cycle = 0; cycle < 2; ++cycle) {
        planner.begin_cycle({});
        planner.forward();
        const CyclePlan plan = planner.finish(/*is_final=*/false);
        for (std::size_t h = 1; h <= hops; ++h) EXPECT_EQ(plan.action(h), core::PlanAct::PassB);
        if (hops == 64) {
          EXPECT_EQ(plan.action(mux), core::PlanAct::PassSrc);
          EXPECT_EQ(plan.pass_src[mux], nl.input_wire(0));
        } else {
          EXPECT_EQ(plan.action(mux), core::PlanAct::FreeXor);
        }
      }
      EXPECT_EQ(planner.cache_hits(), opts.cache ? 1u : 0u);
    }
  }
}

/// Differential fuzz (both party sides): randomized sequential netlists
/// driven through randomized public-input sequences. The garbler-side and
/// evaluator-side planners each hold a tiny PlanCache (1-byte budget: the
/// 4-entry floor), so the sweep crosses cache hits, hit re-verification and
/// LRU evictions; every cycle's plan must be byte-equal to an uncached
/// reference. A2G_PLAN_FUZZ_SEEDS scales the sweep (CI sanitizer job runs a
/// deeper pass).
TEST(PlanCacheDifferentialFuzz, CachedPlansByteEqualUncachedEveryCycle) {
  int seeds = 12;
  if (const char* env = std::getenv("A2G_PLAN_FUZZ_SEEDS")) seeds = std::atoi(env);
  constexpr std::uint64_t kCycles = 20;
  constexpr std::uint32_t kStreamedPub = 3;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;

  for (int seed = 0; seed < seeds; ++seed) {
    crypto::CtrRng rng(crypto::block_from_u64(static_cast<std::uint64_t>(seed) * 65537 + 11));
    const netlist::Netlist nl = random_seq_netlist(rng, kStreamedPub);
    const netlist::BitVec pub = to_bits(rng.next_u64(), 4);
    std::vector<netlist::BitVec> pub_streams;
    for (std::uint64_t c = 0; c < kCycles; ++c) {
      pub_streams.push_back(to_bits(rng.next_u64(), kStreamedPub));
    }

    for (const Mode mode : {Mode::SkipGate, Mode::Conventional}) {
      core::PlanCache gcache(1);  // first-sight admission, capacity floor of 4
      core::PlanCache ecache(1);
      PlannerOptions gopts;
      gopts.mode = mode;
      gopts.shared_cache = &gcache;
      PlannerOptions eopts = gopts;
      eopts.shared_cache = &ecache;
      PlannerOptions fresh;
      fresh.mode = mode;
      fresh.cache = false;

      Planner pg(nl, gopts);
      Planner pe(nl, eopts);
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
      EXPECT_EQ(pg.cache_hits() + pg.cache_misses(), kCycles) << "seed " << seed;
      EXPECT_EQ(pg.cache_hits(), pe.cache_hits()) << "seed " << seed;
      EXPECT_EQ(gcache.evictions(), ecache.evictions()) << "seed " << seed;
      EXPECT_LE(gcache.entries(), gcache.capacity());
      hits += pg.cache_hits();
      evictions += gcache.evictions();
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(evictions, 0u);
}

}  // namespace
