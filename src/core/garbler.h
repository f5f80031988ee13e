// Garbler-side (Alice) session: owns the label generator, the free-XOR
// offset R and every garbler label; consumes the public CyclePlan and talks
// to the evaluator only through a gc::Transport. It never sees Bob's inputs
// (Bob's labels go out through the batched OT endpoint — IKNP extension or
// Precomp random-OT pool, per gc::OtBackend) and never reads from the planner's
// fingerprint state — the plan is the entire shared contract.
//
// OT schedule: Bob-owned bits bind by enqueueing the (x0, x0^R) pair; the
// whole phase's batch runs at the flush point at the end of reset() /
// begin_cycle(), after the evaluator's request() for the same phase (the
// driver's ot_* hooks order this; see core/skipgate.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/plan.h"
#include "crypto/block.h"
#include "gc/garble.h"
#include "gc/otext.h"
#include "gc/transport.h"
#include "netlist/netlist.h"

namespace arm2gc::core {

class GarblerSession {
 public:
  /// `ot_backend` selects the OT endpoint; `warm_ot` (optional, IKNP only)
  /// carries base-OT state across runs of one pairing, `warm_ot_pool` is its
  /// Precomp counterpart (the random-OT pool, which embeds its own base
  /// state) and `ot_pool` sizes a fresh Precomp pool when no warm one is
  /// handed in.
  GarblerSession(const netlist::Netlist& nl, Mode mode, crypto::Block seed, gc::Transport& tx,
                 gc::OtBackend ot_backend = gc::OtBackend::Iknp,
                 gc::IknpSenderState* warm_ot = nullptr,
                 gc::RandomOtPoolSender* warm_ot_pool = nullptr,
                 std::size_t ot_pool = gc::kDefaultOtPoolBatch);

  /// Binds labels for constants (Conventional mode), fixed inputs and
  /// flip-flop initial values; sends the evaluator's labels (directly for
  /// Alice-known bits, batched through OT for Bob's bits).
  void reset(const netlist::BitVec& alice_bits, const netlist::BitVec& pub_bits);

  /// Installs root labels for a cycle and binds streamed inputs.
  void begin_cycle(const netlist::BitVec& alice_stream, const netlist::BitVec& pub_stream);

  /// Runs the garbler label pass over the plan's gates in order, sending
  /// each garbled table as soon as it is built.
  void garble_cycle(const CyclePlan& plan);

  /// Receives Bob's output labels and decodes this cycle's sampled outputs.
  [[nodiscard]] netlist::BitVec decode_outputs(const CyclePlan& plan);

  /// Carries flip-flop labels into the next cycle.
  void latch(const CyclePlan& plan);

  /// OT maintenance between cycles (the schedule's ot_refill slot): lets the
  /// Precomp backend top up its random-OT pool off the critical path.
  void ot_maintain() { ot_->maintain(); }

  /// OT-phase counters of this session's sender endpoint.
  [[nodiscard]] const gc::OtPhaseStats& ot_stats() const { return ot_->stats(); }

  /// Running gf_double-mix digest of every garbled-table block sent (same
  /// construction as gc/golden_digest.h): pins table *content*, not just
  /// byte counts, across transports and OT backends.
  [[nodiscard]] crypto::Block table_digest() const { return table_digest_; }

 private:
  void bind_secret(netlist::Owner owner, bool v, crypto::Block& la);
  [[nodiscard]] bool known_bit(netlist::Owner owner, std::uint32_t idx,
                               const netlist::BitVec& alice, const netlist::BitVec& pub,
                               const char* what) const;

  const netlist::Netlist& nl_;
  Mode mode_;
  gc::Garbler garbler_;
  gc::Transport* tx_;
  std::unique_ptr<gc::OtSender> ot_;

  std::vector<crypto::Block> la_;
  std::vector<crypto::Block> fixed_la_;
  std::vector<crypto::Block> dff_la_;
  crypto::Block const_la_[2];
  crypto::Block table_digest_{};
};

}  // namespace arm2gc::core
