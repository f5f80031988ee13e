// Precomputed-OT suite (gc/otpre.h): OtBackend::Precomp must be a perfect
// drop-in for the IKNP backend while moving the expensive OT exchange off
// the online critical path. Pinned here:
//   - endpoint-level derandomization correctness: received labels equal
//     x0 ^ b*R for every index, across batch sizes spanning the one-block
//     correction header (m <= 64), overflow correction blocks (m > 64) and
//     batches larger than the pool target (emergency refill), over both the
//     lock-step duplex and the threaded pipe;
//   - the maintain hooks top the pool back up between batches, so steady
//     online batches never pay a refill;
//   - the offline/online stats split: ot_online_bytes counts exactly the
//     derandomization frames (16*(1 + extra + 2m) per batch, 34 B per
//     choice at m == 8 against the ~192 B IKNP floor at m == 1), refill
//     traffic and wall time land on the offline side;
//   - full-driver differential fuzz: Precomp vs Iknp produce bit-identical
//     outputs, label streams, golden table digests and non-OT comm counters
//     across both modes and both in-process transports;
//   - warm pools amortize: one base phase and one bulk refill serve many
//     runs of a session, later runs doing derandomization only.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "arm/arm2gc.h"
#include "arm/assembler.h"
#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/skipgate.h"
#include "crypto/rng.h"
#include "gc/garble.h"
#include "gc/otext.h"
#include "gc/otpre.h"
#include "gc/transport.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using crypto::Block;
using crypto::block_from_u64;
using a2gtest::to_bits;

int fuzz_iters(int dflt) {
  if (const char* env = std::getenv("A2G_OT_FUZZ_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return dflt;
}

/// Online bytes of one derandomization exchange: correction header (+
/// overflow blocks past 64 choices) one way, 2m masked pads back.
std::uint64_t derand_bytes(std::size_t m) {
  const std::size_t extra = m > 64 ? (m - 64 + 127) / 128 : 0;
  return 16 * (1 + extra + 2 * m);
}

// --- endpoint-level derandomization ---------------------------------------------

/// Runs lock-step batches through one Precomp endpoint pair over an
/// in-memory duplex (pool refill target `target`) and checks every
/// delivered label plus the online-side counters.
void run_precomp_batches(const std::vector<std::size_t>& batch_sizes, std::size_t target,
                         std::uint64_t seed_lo) {
  gc::InMemoryDuplex duplex;
  const Block seed = block_from_u64(seed_lo);
  auto sender = gc::make_ot_sender(gc::OtBackend::Precomp, duplex.garbler_end(), seed, nullptr,
                                   nullptr, target);
  auto receiver = gc::make_ot_receiver(gc::OtBackend::Precomp, duplex.evaluator_end(), seed,
                                       nullptr, nullptr, target);

  gc::Garbler g(block_from_u64(seed_lo * 31 + 7));
  crypto::CtrRng rng(block_from_u64(seed_lo * 131 + 1));
  std::uint64_t choices = 0;
  std::uint64_t online = 0;
  for (const std::size_t m : batch_sizes) {
    std::vector<Block> x0(m);
    std::vector<bool> choice(m);
    std::vector<Block> got(m);
    for (std::size_t j = 0; j < m; ++j) {
      x0[j] = g.fresh_label();
      choice[j] = rng.next_bool();
      receiver->enqueue(choice[j], &got[j]);
    }
    receiver->request();
    for (std::size_t j = 0; j < m; ++j) sender->enqueue(x0[j], x0[j] ^ g.R());
    sender->flush();
    receiver->finish();
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_TRUE(got[j] == (choice[j] ? x0[j] ^ g.R() : x0[j]))
          << "target=" << target << " m=" << m << " j=" << j;
    }
    choices += m;
    online += derand_bytes(m);
  }
  // One base phase ever (inside the first refill); online counters track
  // exactly the derandomization exchanges, never the refill traffic.
  EXPECT_EQ(sender->stats().base_ots, gc::kOtKappa);
  EXPECT_EQ(receiver->stats().base_ots, gc::kOtKappa);
  EXPECT_EQ(sender->stats().batches, batch_sizes.size());
  EXPECT_EQ(sender->stats().choices, choices);
  EXPECT_EQ(sender->stats().online_bytes, online);
  EXPECT_EQ(receiver->stats().online_bytes, online);
}

TEST(OtPre, DeliversChosenLabelsAcrossBatchSizes) {
  run_precomp_batches({1}, 1024, 1);
  run_precomp_batches({7, 1, 128}, 1024, 2);
  // Correction bits past the 64 the header block carries, and past one
  // whole overflow block (m > 192).
  run_precomp_batches({64, 65, 129, 200}, 1024, 3);
}

TEST(OtPre, BatchesLargerThanThePoolRefillTransparently) {
  // target 16: every listed batch either drains the pool or exceeds it
  // outright, so emergency refills of max(target, m) interleave with the
  // derand frames — labels must be unaffected.
  run_precomp_batches({8, 8, 8, 40, 3, 300, 8}, 16, 4);
  run_precomp_batches({1, 1, 1}, 1, 5);
}

TEST(OtPre, MaintainHooksTopUpThePoolOffTheCriticalPath) {
  gc::InMemoryDuplex duplex;
  const Block seed = block_from_u64(77);
  gc::RandomOtPoolSender spool(seed, 16);
  gc::RandomOtPoolReceiver rpool(seed, 16);
  auto sender =
      gc::make_ot_sender(gc::OtBackend::Precomp, duplex.garbler_end(), seed, nullptr, &spool);
  auto receiver = gc::make_ot_receiver(gc::OtBackend::Precomp, duplex.evaluator_end(), seed,
                                       nullptr, &rpool);

  // Burn 10 of the first refill's 16 entries.
  gc::Garbler g(block_from_u64(787));
  std::vector<Block> got(10);
  for (std::size_t j = 0; j < 10; ++j) receiver->enqueue((j & 1) != 0, &got[j]);
  receiver->request();
  for (std::size_t j = 0; j < 10; ++j) sender->enqueue(g.fresh_label(), g.fresh_label());
  sender->flush();
  receiver->finish();
  ASSERT_EQ(spool.available(), 6u);
  ASSERT_EQ(rpool.available(), 6u);
  ASSERT_EQ(spool.refills(), 1u);

  // 6 < low_water 8: the maintenance slot refills a full target batch on
  // both sides (receiver-first, like the binding phases).
  receiver->maintain_request();
  sender->maintain();
  receiver->maintain_finish();
  EXPECT_EQ(spool.available(), 22u);
  EXPECT_EQ(rpool.available(), 22u);
  EXPECT_EQ(spool.refills(), 2u);
  EXPECT_EQ(rpool.refills(), 2u);
  // Base OTs ran once, inside the very first refill.
  EXPECT_EQ(sender->stats().base_ots, gc::kOtKappa);

  // Above low water: the slot is a no-op.
  receiver->maintain_request();
  sender->maintain();
  receiver->maintain_finish();
  EXPECT_EQ(spool.refills(), 2u);

  // The next online batch finds a full pool: derandomization only, and the
  // labels still check out.
  const std::uint64_t offline_before = sender->stats().offline_wall_ns;
  std::vector<Block> x0(4);
  std::vector<Block> got2(4);
  for (std::size_t j = 0; j < 4; ++j) {
    x0[j] = g.fresh_label();
    receiver->enqueue(j < 2, &got2[j]);
  }
  receiver->request();
  for (std::size_t j = 0; j < 4; ++j) sender->enqueue(x0[j], x0[j] ^ g.R());
  sender->flush();
  receiver->finish();
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_TRUE(got2[j] == (j < 2 ? x0[j] ^ g.R() : x0[j])) << j;
  }
  EXPECT_EQ(sender->stats().offline_wall_ns, offline_before);  // no refill paid
  EXPECT_EQ(spool.refills(), 2u);
}

TEST(OtPre, PrecompOverThreadedPipe) {
  gc::ThreadedPipeDuplex duplex(256);
  const Block seed = block_from_u64(42);
  gc::Garbler g(block_from_u64(4242));
  const Block r = g.R();
  constexpr std::size_t kM = 200;
  std::vector<Block> x0(kM);
  for (auto& b : x0) b = g.fresh_label();

  std::thread sender_thread([&] {
    auto sender = gc::make_ot_sender(gc::OtBackend::Precomp, duplex.garbler_end(), seed,
                                     nullptr, nullptr, 64);
    for (std::size_t j = 0; j < kM; ++j) sender->enqueue(x0[j], x0[j] ^ r);
    sender->flush();
    sender->maintain();
    for (std::size_t j = 0; j < kM; ++j) sender->enqueue(x0[j] ^ r, x0[j]);
    sender->flush();
  });

  auto receiver = gc::make_ot_receiver(gc::OtBackend::Precomp, duplex.evaluator_end(), seed,
                                       nullptr, nullptr, 64);
  crypto::CtrRng rng(block_from_u64(777));
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<bool> choice(kM);
    std::vector<Block> got(kM);
    for (std::size_t j = 0; j < kM; ++j) {
      choice[j] = rng.next_bool();
      receiver->enqueue(choice[j], &got[j]);
    }
    receiver->request();
    receiver->finish();
    if (batch == 0) {
      receiver->maintain_request();
      receiver->maintain_finish();
    }
    for (std::size_t j = 0; j < kM; ++j) {
      const Block lo = batch == 0 ? x0[j] : x0[j] ^ r;
      const Block hi = batch == 0 ? x0[j] ^ r : x0[j];
      EXPECT_TRUE(got[j] == (choice[j] ? hi : lo)) << "batch=" << batch << " j=" << j;
    }
  }
  sender_thread.join();
}

// --- full-driver differential: Precomp vs Iknp ----------------------------------

/// Everything except OT traffic must be bit-identical across backends: the
/// labels, tables and outputs cannot depend on how Bob's labels traveled.
void expect_same_protocol(const core::RunResult& x, const core::RunResult& y) {
  EXPECT_EQ(x.sampled_outputs, y.sampled_outputs);
  EXPECT_EQ(x.final_outputs, y.final_outputs);
  EXPECT_EQ(x.final_cycle, y.final_cycle);
  EXPECT_EQ(x.stats.cycles, y.stats.cycles);
  EXPECT_EQ(x.stats.garbled_non_xor, y.stats.garbled_non_xor);
  EXPECT_EQ(x.stats.skipped_non_xor, y.stats.skipped_non_xor);
  EXPECT_EQ(x.stats.non_xor_slots, y.stats.non_xor_slots);
  EXPECT_TRUE(x.stats.table_digest == y.stats.table_digest);
  EXPECT_EQ(x.stats.comm.garbled_table_bytes, y.stats.comm.garbled_table_bytes);
  EXPECT_EQ(x.stats.comm.input_label_bytes, y.stats.comm.input_label_bytes);
  EXPECT_EQ(x.stats.comm.output_bytes, y.stats.comm.output_bytes);
  EXPECT_EQ(x.stats.ot_choices, y.stats.ot_choices);
  EXPECT_EQ(x.stats.ot_batches, y.stats.ot_batches);
}

/// Random sequential netlist with Bob-owned fixed inputs, dff inits and
/// streamed bits, so both the reset batch and the per-cycle batches carry
/// real choices (same shape as the ot_test fuzz).
netlist::Netlist random_ot_netlist(crypto::CtrRng& rng) {
  netlist::Netlist nl;
  constexpr std::uint32_t kInPerParty = 3;
  for (std::uint32_t i = 0; i < kInPerParty; ++i) {
    nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Public, false, i, ""});
  }
  nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, true, 0, ""});
  nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, true, 0, ""});
  for (std::uint32_t i = 0; i < 3; ++i) {
    netlist::Dff d;
    switch (rng.next_below(3)) {
      case 0: d.init = netlist::Dff::Init::Zero; break;
      case 1:
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
  const int num_gates = 25 + static_cast<int>(rng.next_below(25));
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
  for (int o = 0; o < 5; ++o) {
    nl.outputs.push_back(netlist::OutputPort{static_cast<netlist::WireId>(rng.next_below(nw)),
                                             rng.next_bool(), ""});
  }
  nl.outputs_every_cycle = true;
  return nl;
}

TEST(OtPre, PrecompBitIdenticalToIknpAcrossModesAndTransports) {
  const int iters = fuzz_iters(3);
  crypto::CtrRng rng(block_from_u64(1895));
  for (int seed = 0; seed < iters; ++seed) {
    const netlist::Netlist nl = random_ot_netlist(rng);
    const netlist::BitVec a = to_bits(rng.next_u64(), 3);
    const netlist::BitVec b = to_bits(rng.next_u64(), 3);
    const netlist::BitVec p = to_bits(rng.next_u64(), 3);
    const std::uint64_t aw = rng.next_u64();
    const std::uint64_t bw = rng.next_u64();
    core::StreamProvider streams;
    streams.alice = [aw](std::uint64_t c) { return netlist::BitVec{((aw >> c) & 1u) != 0}; };
    streams.bob = [bw](std::uint64_t c) { return netlist::BitVec{((bw >> c) & 1u) != 0}; };

    for (const core::Mode mode : {core::Mode::SkipGate, core::Mode::Conventional}) {
      for (const core::TransportKind tk :
           {core::TransportKind::InMemory, core::TransportKind::ThreadedPipe}) {
        core::RunOptions iknp;
        iknp.mode = mode;
        iknp.fixed_cycles = 7;
        iknp.exec.transport = tk;
        iknp.exec.ot_backend = gc::OtBackend::Iknp;
        core::RunOptions pre = iknp;
        pre.exec.ot_backend = gc::OtBackend::Precomp;
        // A tiny pool forces refills to interleave with real batches.
        pre.exec.ot_pool = 4;

        const core::RunResult rk = core::SkipGateDriver(nl, iknp).run(a, b, p, &streams);
        const core::RunResult rp = core::SkipGateDriver(nl, pre).run(a, b, p, &streams);
        expect_same_protocol(rk, rp);
        // Online OT traffic shrinks to the derand frames; the rest of the
        // comm ledger (checked above) is untouched.
        EXPECT_LT(rp.stats.ot_online_bytes, rk.stats.ot_online_bytes)
            << "seed " << seed << " mode " << static_cast<int>(mode);
      }
    }
  }
}

// --- online/offline split -------------------------------------------------------

netlist::Netlist make_serial_adder() {
  builder::CircuitBuilder cb;
  const auto carry = cb.make_dff(netlist::Dff::Init::Zero);
  const builder::Wire a = cb.input(netlist::Owner::Alice, 0, /*streamed=*/true);
  const builder::Wire b = cb.input(netlist::Owner::Bob, 0, /*streamed=*/true);
  const auto fa = builder::full_adder(cb, a, b, cb.dff_out(carry));
  cb.set_dff_d(carry, fa.carry);
  cb.output(fa.sum, "sum");
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

/// 8 streamed Bob bits (and 8 Alice bits) per cycle: each cycle's OT batch
/// carries m == 8 choices, the shape where the correction header amortizes
/// to exactly 34 online bytes per choice.
netlist::Netlist make_wide_stream_netlist() {
  builder::CircuitBuilder cb;
  builder::Wire acc = cb.constant(false);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const builder::Wire a = cb.input(netlist::Owner::Alice, i, /*streamed=*/true);
    const builder::Wire b = cb.input(netlist::Owner::Bob, i, /*streamed=*/true);
    acc = cb.xor_(acc, cb.and_(a, b));
  }
  cb.output(acc, "acc");
  cb.set_outputs_every_cycle(true);
  return cb.take();
}

TEST(OtPre, OnlineBytesPerChoiceMeetTheDerandFloor) {
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return to_bits(0xA5u ^ c, 8); };
  streams.bob = [](std::uint64_t c) { return to_bits(0x3Cu + c, 8); };
  core::RunOptions opts;
  opts.fixed_cycles = 16;
  opts.exec.ot_backend = gc::OtBackend::Iknp;
  core::RunOptions pre = opts;
  pre.exec.ot_backend = gc::OtBackend::Precomp;

  {
    // m == 1 batches (one streamed Bob bit per cycle): IKNP pays the full
    // column matrix online — 192 B per choice — while derandomization pays
    // 48 B (header + 2 masked pads).
    const netlist::Netlist nl = make_serial_adder();
    core::StreamProvider bit_streams;
    bit_streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
    bit_streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 2) != 0}; };
    const core::RunResult rk = core::SkipGateDriver(nl, opts).run({}, {}, {}, &bit_streams);
    const core::RunResult rp = core::SkipGateDriver(nl, pre).run({}, {}, {}, &bit_streams);
    ASSERT_EQ(rk.stats.ot_choices, 16u);
    // IKNP sits entirely on the online path: every OT byte, base phase
    // included, is critical-path traffic.
    EXPECT_EQ(rk.stats.ot_online_bytes, rk.stats.comm.ot_bytes);
    EXPECT_EQ(rk.stats.ot_online_bytes - 16 * (1 + 2 * gc::kOtKappa),
              192u * rk.stats.ot_choices);
    EXPECT_EQ(rp.stats.ot_online_bytes, 48u * rp.stats.ot_choices);
    EXPECT_EQ(rp.stats.ot_offline_wall_ns > 0, true);
    // comm.ot_bytes still sees the refill traffic — it just isn't online.
    EXPECT_EQ(rp.stats.comm.ot_bytes - rp.stats.ot_online_bytes,
              16u * (1 + 2 * gc::kOtKappa)          // base phase
                  + 16u * (2 + 8 * ((1024 + 7) / 8) + 2 * 1024));  // one bulk refill
  }
  {
    // m == 8 batches: 16*(1 + 16)/8 == 34 B per streamed choice, the
    // acceptance floor, against 52 B for IKNP at the same batch size.
    const netlist::Netlist nl = make_wide_stream_netlist();
    const core::RunResult rk = core::SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
    const core::RunResult rp = core::SkipGateDriver(nl, pre).run({}, {}, {}, &streams);
    expect_same_protocol(rk, rp);
    ASSERT_EQ(rp.stats.ot_choices, 16u * 8u);
    EXPECT_EQ(rp.stats.ot_online_bytes, 34u * rp.stats.ot_choices);
    EXPECT_EQ(rp.stats.ot_online_bytes, derand_bytes(8) * 16);
  }
}

TEST(OtPre, IdealAndIknpReportAllOtBytesAsOnline) {
  const netlist::Netlist nl = make_serial_adder();
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 2) != 0}; };
  core::RunOptions opts;
  opts.fixed_cycles = 8;
  const core::RunResult ideal = core::SkipGateDriver(nl, opts).run({}, {}, {}, &streams);
  EXPECT_EQ(ideal.stats.ot_online_bytes, ideal.stats.comm.ot_bytes);
  EXPECT_EQ(ideal.stats.ot_offline_wall_ns, 0u);
  core::RunOptions iknp = opts;
  iknp.exec.ot_backend = gc::OtBackend::Iknp;
  const core::RunResult rk = core::SkipGateDriver(nl, iknp).run({}, {}, {}, &streams);
  EXPECT_EQ(rk.stats.ot_online_bytes, rk.stats.comm.ot_bytes);
  EXPECT_EQ(rk.stats.ot_offline_wall_ns, 0u);
}

// --- warm pools across runs -----------------------------------------------------

TEST(OtPre, WarmSessionAmortizesBasePhaseAndBulkRefills) {
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

  core::ExecOptions pre;
  pre.ot_backend = gc::OtBackend::Precomp;
  arm::Arm2Gc::Session session(machine, pre);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const arm::Arm2GcResult r = session.run(std::vector<std::uint32_t>{10 + i},
                                            std::vector<std::uint32_t>{5 * i});
    EXPECT_EQ(r.outputs[0], 10 + i + 5 * i);
    EXPECT_EQ(r.stats.ot_choices, 32u);
    // All 32 Bob bits ride one derand batch per run; the base phase and the
    // single bulk refill are paid on the first run only — every later run
    // is pure online derandomization (zero offline wall).
    EXPECT_EQ(r.stats.ot_base_ots, i == 0 ? gc::kOtKappa : 0u) << "run " << i;
    EXPECT_EQ(r.stats.ot_online_bytes, derand_bytes(32)) << "run " << i;
    if (i > 0) {
      EXPECT_EQ(r.stats.ot_offline_wall_ns, 0u) << "run " << i;
    }
    EXPECT_EQ(r.stats.comm.ot_bytes > r.stats.ot_online_bytes, i == 0) << "run " << i;
  }

  // The same amortization over the threaded pipe (each party's pool lives
  // with its thread).
  core::ExecOptions piped = pre;
  piped.transport = core::TransportKind::ThreadedPipe;
  arm::Arm2Gc::Session piped_session(machine, piped);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const arm::Arm2GcResult r = piped_session.run(std::vector<std::uint32_t>{20 + i},
                                                  std::vector<std::uint32_t>{3 * i});
    EXPECT_EQ(r.outputs[0], 20 + i + 3 * i);
    EXPECT_EQ(r.stats.ot_base_ots, i == 0 ? gc::kOtKappa : 0u) << "piped run " << i;
  }
}

TEST(OtPre, PrecompMatchesIknpOnArmProgram) {
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

  core::ExecOptions iknp;
  iknp.ot_backend = gc::OtBackend::Iknp;
  core::ExecOptions pre;
  pre.ot_backend = gc::OtBackend::Precomp;
  const std::vector<std::uint32_t> alice = {41};
  const std::vector<std::uint32_t> bob = {59};
  const arm::Arm2GcResult rk = machine.run(alice, bob, 1u << 20, gc::Scheme::HalfGates, iknp);
  const arm::Arm2GcResult rp = machine.run(alice, bob, 1u << 20, gc::Scheme::HalfGates, pre);
  EXPECT_EQ(rp.outputs[0], 100u);
  EXPECT_EQ(rp.outputs, rk.outputs);
  EXPECT_EQ(rp.cycles, rk.cycles);
  EXPECT_EQ(rp.stats.garbled_non_xor, rk.stats.garbled_non_xor);
  EXPECT_TRUE(rp.stats.table_digest == rk.stats.table_digest);
  EXPECT_EQ(rp.stats.ot_choices, rk.stats.ot_choices);
  EXPECT_LT(rp.stats.ot_online_bytes, rk.stats.ot_online_bytes);
}

}  // namespace
