#include <gtest/gtest.h>

#include "crypto/block.h"
#include "gc/garble.h"
#include "gc/golden_digest.h"
#include "gc/otext.h"
#include "gc/transport.h"
#include "netlist/gate.h"

namespace {

using arm2gc::crypto::Block;
using arm2gc::crypto::block_from_u64;
using namespace arm2gc::gc;
using arm2gc::netlist::tt_and_core;
using arm2gc::netlist::tt_eval;
using arm2gc::netlist::tt_is_affine;
using arm2gc::netlist::TruthTable;

TEST(Garbler, PointAndPermuteOffset) {
  const Garbler g(block_from_u64(7));
  EXPECT_TRUE(g.R().lsb());
  EXPECT_FALSE(g.R().is_zero());
}

class GarbleAllGates : public ::testing::TestWithParam<int> {};

TEST_P(GarbleAllGates, GarbleEvalMatchesTruthTable) {
  const auto tt = static_cast<TruthTable>(GetParam());
  if (tt_is_affine(tt)) return;  // affine gates are free, never garbled

  Garbler garbler(block_from_u64(99));
  const Block r = garbler.R();
  const Block a0 = garbler.fresh_label();
  const Block b0 = garbler.fresh_label();

  GarbledTable table;
  const Block w0 = garbler.garble(a0, b0, tt_and_core(tt), table);

  for (const bool va : {false, true}) {
    for (const bool vb : {false, true}) {
      Evaluator ev;  // fresh tweak sequence per evaluation
      const Block wa = va ? (a0 ^ r) : a0;
      const Block wb = vb ? (b0 ^ r) : b0;
      const Block w = ev.eval(wa, wb, table);
      const bool expect = tt_eval(tt, va, vb);
      EXPECT_EQ(w, expect ? (w0 ^ r) : w0)
          << "tt=" << static_cast<int>(tt) << " va=" << va << " vb=" << vb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGates, GarbleAllGates, ::testing::Range(0, 16));

TEST(Garble, ChainedGatesStayConsistent) {
  // Garble a small DAG: d = (a & b) ^ c ; e = d | a  (the XOR is free).
  Garbler g(block_from_u64(5));
  Evaluator ev;
  const Block r = g.R();
  const Block a0 = g.fresh_label();
  const Block b0 = g.fresh_label();
  const Block c0 = g.fresh_label();

  GarbledTable t1;
  const Block and0 = g.garble(a0, b0, tt_and_core(arm2gc::netlist::kTtAnd), t1);
  const Block d0 = and0 ^ c0;  // free-XOR
  GarbledTable t2;
  const Block e0 = g.garble(d0, a0, tt_and_core(arm2gc::netlist::kTtOr), t2);

  for (int bits = 0; bits < 8; ++bits) {
    const bool va = bits & 1;
    const bool vb = bits & 2;
    const bool vc = bits & 4;
    Evaluator e;
    const Block wa = va ? a0 ^ r : a0;
    const Block wb = vb ? b0 ^ r : b0;
    const Block wc = vc ? c0 ^ r : c0;
    const Block wand = e.eval(wa, wb, t1);
    const Block wd = wand ^ wc;
    const Block we = e.eval(wd, wa, t2);
    const bool expect = ((va && vb) != vc) || va;
    EXPECT_EQ(we, expect ? e0 ^ r : e0) << bits;
  }
}

TEST(Transport, AccountsTrafficClassesBothDirections) {
  InMemoryDuplex duplex;
  Transport& alice = duplex.garbler_end();
  Transport& bob = duplex.evaluator_end();
  alice.send(block_from_u64(1), Traffic::GarbledTable);
  alice.send(block_from_u64(2), Traffic::GarbledTable);
  alice.send(block_from_u64(3), Traffic::InputLabel);
  alice.account(Traffic::Ot, 16);
  bob.send(block_from_u64(4), Traffic::OutputDecode);
  EXPECT_EQ(duplex.stats().garbled_table_bytes, 32u);
  EXPECT_EQ(duplex.stats().input_label_bytes, 16u);
  EXPECT_EQ(duplex.stats().ot_bytes, 16u);
  EXPECT_EQ(duplex.stats().output_bytes, 16u);
  EXPECT_EQ(duplex.stats().total(), 80u);
  EXPECT_EQ(bob.recv(), block_from_u64(1));
  EXPECT_EQ(bob.recv(), block_from_u64(2));
  EXPECT_EQ(bob.recv(), block_from_u64(3));
  EXPECT_EQ(alice.recv(), block_from_u64(4));
  EXPECT_THROW(bob.recv(), std::runtime_error);
  EXPECT_THROW(alice.recv(), std::runtime_error);
}

TEST(Ot, IdealBackendDeliversChosenLabelsAndAccountsFramedBytes) {
  InMemoryDuplex duplex;
  const Block seed = block_from_u64(123);
  auto sender = make_ot_sender(OtBackend::Ideal, duplex.garbler_end(), seed, nullptr);
  auto receiver = make_ot_receiver(OtBackend::Ideal, duplex.evaluator_end(), seed, nullptr);
  const Block x0 = block_from_u64(10);
  const Block x1 = block_from_u64(11);
  Block got0{}, got1{};
  receiver->enqueue(false, &got0);
  receiver->enqueue(true, &got1);
  receiver->request();
  sender->enqueue(x0, x1);
  sender->enqueue(x0, x1);
  sender->flush();
  receiver->finish();
  EXPECT_EQ(got0, x0);
  EXPECT_EQ(got1, x1);
  // The ideal stand-in ships the pair: exactly 32 framed bytes per choice
  // (the constant the accounting used to assume, now an actual frame size).
  EXPECT_EQ(duplex.stats().ot_bytes, 2u * 32u);
  EXPECT_EQ(sender->stats().choices, 2u);
  EXPECT_EQ(receiver->stats().batches, 1u);
}

// Pins the exact garbled-table bytes produced by the pre-AES-NI seed
// implementation (captured with tools/golden_capture.cpp at the portable,
// one-hash-at-a-time revision). Any backend or batching change that alters a
// single ciphertext bit fails here, on every machine and either AES backend.
// The digest computation is shared with the capture tool (gc/golden_digest.h).
TEST(Garble, GoldenTableDigestsStableAcrossBackends) {
  EXPECT_EQ(golden_table_digest(), "9dbcdbc3bf700c2b83007da5d07655ad");
}

TEST(Garble, DistinctSeedsDistinctLabels) {
  Garbler g1(block_from_u64(1));
  Garbler g2(block_from_u64(2));
  EXPECT_FALSE(g1.R() == g2.R());
  EXPECT_FALSE(g1.fresh_label() == g2.fresh_label());
}

}  // namespace
