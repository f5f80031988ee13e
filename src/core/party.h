// Party-separated endpoint API: one protocol execution of ONE role over any
// gc::Transport. This is the layer a deployment links against — a garbler
// service holds GarblerEndpoints, an evaluator client holds
// EvaluatorEndpoints, and nothing in either binary ever constructs the peer's
// secret state (EMP-toolkit's party-indexed NetIO endpoints are the shape
// being followed). The in-process SkipGateDriver (core/skipgate.h) is a thin
// composition of the two endpoints over an in-memory duplex and is pinned
// byte-identical to a two-process run over a socket.
//
// Each endpoint owns exactly its role's state:
//   - its own Planner (deterministic public bookkeeping; both parties run
//     one independently from the shared `protocol_seed`, and the CyclePlan
//     each derives is the entire inter-party contract),
//   - its role's label session (GarblerSession / EvaluatorSession) seeded
//     from the party's own `private_seed`,
//   - its half of the OT state (sender / receiver endpoint).
// Cross-run state (plan cache, warm IKNP / Precomp OT state) lives
// in a role-scoped WarmState handle the caller owns; an endpoint is
// otherwise a single-execution object.
//
// Seeding: `protocol_seed` is public and must match the peer (fingerprint
// streams are part of the plan contract). `private_seed` is this party's own
// randomness — labels and the free-XOR offset R for the garbler, OT receiver
// randomness for the evaluator. It defaults to the protocol seed so
// in-process runs stay byte-reproducible; a deployment (tools/arm2gc_party)
// seeds it privately per process, which closes the determinism-over-secrecy
// gap noted in gc/otext.h for everything above the base OTs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/plan.h"
#include "crypto/block.h"
#include "gc/garble.h"
#include "gc/otext.h"
#include "gc/transport.h"
#include "netlist/netlist.h"

namespace arm2gc::core {

class GarblerSession;
class EvaluatorSession;

/// The default public protocol seed (fingerprint streams + in-process
/// private randomness when no party-specific seed is supplied).
inline constexpr crypto::Block kDefaultProtocolSeed{0x4152433247430100ULL,
                                                    0x736b697067617465ULL};

enum class Role : std::uint8_t { Garbler, Evaluator };

[[nodiscard]] constexpr const char* role_name(Role r) {
  return r == Role::Garbler ? "garbler" : "evaluator";
}

struct RunStats {
  std::uint64_t cycles = 0;
  /// Garbled tables actually transferred: the paper's "# of Garbled Non-XOR".
  std::uint64_t garbled_non_xor = 0;
  /// Non-affine gate slots (gate x cycle) that were *not* garbled.
  std::uint64_t skipped_non_xor = 0;
  /// Non-affine gate slots encountered = count_non_free() x cycles; equals
  /// the conventional-GC cost of the same run.
  std::uint64_t non_xor_slots = 0;
  /// Cycles whose classification was served from the plan cache / computed.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  /// Always 0 (the planner has no cone memo).
  std::uint64_t cone_hits = 0;    ///< removed once perfbench/ stops naming it
  std::uint64_t cone_misses = 0;  ///< removed once perfbench/ stops naming it
  /// Peak undelivered transport backlog, in 16-byte blocks (in-process
  /// duplexes only; a socket endpoint reports 0).
  std::uint64_t transport_high_water_blocks = 0;
  /// OT subsystem counters. In a single-endpoint run they come from this
  /// role's OT endpoint (the two sides' ledgers are identical by
  /// construction); the in-process lock-step driver reports the garbler's
  /// counts with both roles' ot_wall_ns summed, the threaded driver reports
  /// the garbler's alone.
  std::uint64_t ot_choices = 0;
  std::uint64_t ot_batches = 0;
  std::uint64_t ot_base_ots = 0;  ///< base OTs run this execution (0 when warm)
  /// Online/offline OT split: ot_wall_ns and ot_online_bytes cover the
  /// per-batch critical path (for Ideal/Iknp that is every OT byte);
  /// ot_offline_wall_ns is pool precomputation/refill time, nonzero only
  /// under OtBackend::Precomp.
  std::uint64_t ot_wall_ns = 0;
  std::uint64_t ot_offline_wall_ns = 0;
  std::uint64_t ot_online_bytes = 0;
  /// Running gf_double-mix digest of every garbled-table block this party
  /// sent (garbler) or received (evaluator) — gc/golden_digest.h
  /// construction. The two sides fold the same byte stream, so the digests
  /// are equal on a correct run: it pins table content — not just byte
  /// counts — across transports, plan caching, OT backends and processes.
  crypto::Block table_digest{};
  gc::CommStats comm;

  /// Fraction of non-XOR slots SkipGate elided (0 when nothing ran).
  [[nodiscard]] double skip_ratio() const {
    return non_xor_slots == 0
               ? 0.0
               : static_cast<double>(skipped_non_xor) / static_cast<double>(non_xor_slots);
  }
  /// Fraction of cycles served from the plan cache.
  [[nodiscard]] double plan_cache_hit_ratio() const {
    const std::uint64_t total = plan_cache_hits + plan_cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(plan_cache_hits) / static_cast<double>(total);
  }
};

/// Per-cycle bit provider for streamed inputs (bit-serial circuits). Index i
/// must cover every Input with streamed=true and bit_index==i of that owner.
/// When the two endpoints run on different threads (threaded pipe) or in
/// different processes, the callbacks are invoked from each party's own
/// context (pub from both; alice from the garbler, bob from the evaluator)
/// and must be pure functions of the cycle index.
struct StreamProvider {
  std::function<netlist::BitVec(std::uint64_t cycle)> alice;
  std::function<netlist::BitVec(std::uint64_t cycle)> bob;
  std::function<netlist::BitVec(std::uint64_t cycle)> pub;
};

struct RunResult {
  /// Outputs of every sampled cycle (every cycle if outputs_every_cycle,
  /// otherwise just the final one). Only the garbler decodes outputs; an
  /// evaluator endpoint's run leaves this empty (it contributes labels).
  std::vector<netlist::BitVec> sampled_outputs;
  /// Convenience: the last sampled outputs.
  netlist::BitVec final_outputs;
  std::uint64_t final_cycle = 0;  ///< index of the last executed cycle
  RunStats stats;
};

/// Everything one endpoint needs to know to run its role. The protocol
/// fields (mode, cycle schedule, protocol_seed, ot_backend, ot_pool)
/// must match the peer's; private_seed and the plan-cache tuning are the
/// party's own business.
struct PartyOptions {
  Mode mode = Mode::SkipGate;
  /// Run exactly this many cycles (sequential circuits with a known schedule).
  std::optional<std::uint64_t> fixed_cycles;
  /// Public wire that announces termination (the processor's halt signal);
  /// the cycle where it becomes 1 is the final cycle. Must be public. Both
  /// endpoints decide termination from their own planner — determinism keeps
  /// them agreed with no extra message.
  std::optional<netlist::WireId> halt_wire;
  /// Safety bound when running halt-driven.
  std::uint64_t max_cycles = 1u << 20;
  /// Public seed of the planner fingerprint streams; must equal the peer's.
  crypto::Block protocol_seed = kDefaultProtocolSeed;
  /// This party's own randomness (labels + R for the garbler, OT receiver
  /// randomness for the evaluator). Defaults to protocol_seed, which keeps
  /// in-process runs byte-reproducible; set it privately per process for a
  /// deployment.
  std::optional<crypto::Block> private_seed;
  /// Plan reuse tuning (results never depend on any of it).
  bool plan_cache = true;
  std::size_t plan_cache_budget_bytes = 64u << 20;
  /// OT backend for Bob's input labels (gc/otext.h); must match the peer.
  gc::OtBackend ot_backend = gc::OtBackend::Ideal;
  /// Precomp pool refill batch size (random OTs generated per refill). The
  /// refill schedule is derived deterministically from it, so it must match
  /// the peer; ignored by the other backends.
  std::size_t ot_pool = gc::kDefaultOtPoolBatch;

  [[nodiscard]] crypto::Block own_seed() const {
    return private_seed.value_or(protocol_seed);
  }
};

/// Each party runs serially. The legacy thread-count options that remain
/// (ExecOptions::threads, serve::ServiceOptions::exec_threads,
/// serve::ClientOptions::threads) must be 1: any other value throws
/// std::invalid_argument naming `option`.
void require_single_thread(std::size_t threads, const char* option);

/// Role-scoped cross-run state: the plan cache and (under the IKNP backend)
/// this role's half of the warm OT-extension state. One
/// WarmState per party per long-lived pairing — Arm2Gc::Session owns one per
/// role; a serving deployment owns one per connected client. Endpoints
/// reference it for the duration of a run and reset the OT half on protocol
/// abort: an aborted run can leave the extension streams desynced from the
/// peer's (detected by the per-batch check block, never mis-delivered), so
/// dropping them back to the base phase makes the *next* run recover without
/// rebuilding caches. Not thread-safe; never share one across roles or
/// concurrent runs (endpoints reject a wrong-role WarmState).
class WarmState {
 public:
  struct Options {
    std::size_t plan_cache_budget_bytes = 64u << 20;
    std::size_t cone_memo_budget_bytes = 32u << 20;  ///< removed once perfbench/ stops naming it
    /// Iknp allocates the role's extension state; Precomp the role's
    /// random-OT pool (which embeds its own extension state); Ideal none.
    gc::OtBackend ot_backend = gc::OtBackend::Ideal;
    /// Precomp pool refill batch size; must equal PartyOptions::ot_pool.
    std::size_t ot_pool = gc::kDefaultOtPoolBatch;
    /// The party's private seed for the OT state (domain-separated inside).
    crypto::Block seed = kDefaultProtocolSeed;
  };

  explicit WarmState(Role role);  ///< default Options
  WarmState(Role role, const Options& opts);
  ~WarmState();

  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] gc::OtBackend ot_backend() const { return opts_.ot_backend; }
  [[nodiscard]] std::size_t ot_pool() const { return opts_.ot_pool; }
  [[nodiscard]] const PlanCache& plan_cache() const { return plan_cache_; }
  /// An empty memo whose counters read 0; removed once perfbench/ stops
  /// naming it.
  [[nodiscard]] const ConeMemo& cone_memo() const {
    static const ConeMemo kNone;
    return kNone;
  }
  [[nodiscard]] bool has_ot_state() const {
    return ot_sender_ != nullptr || ot_receiver_ != nullptr || otpre_sender_ != nullptr ||
           otpre_receiver_ != nullptr;
  }
  /// Precomp only: random OTs banked and not yet consumed (0 otherwise).
  [[nodiscard]] std::size_t ot_pool_available() const;

  /// Precomp only: true when the pool is below its low-water mark, i.e. the
  /// next ot_refill()/ot_refill_request() slot will actually exchange a
  /// refill batch rather than no-op. Both roles' pools track the same fill
  /// level by construction, so a scheduler can predict from its own side
  /// whether the maintenance slot touches the wire (the garbler service
  /// parks for the receiver-first refill frames only when this is set).
  [[nodiscard]] bool ot_refill_pending() const;

  /// Discards the warm OT-extension state (the next run redoes the kappa
  /// base OTs; plan caches are untouched). Called by endpoints on protocol
  /// abort; callable directly to force a re-base.
  void reset_ot();

 private:
  friend class GarblerEndpoint;
  friend class EvaluatorEndpoint;

  Role role_;
  Options opts_;
  PlanCache plan_cache_;
  std::unique_ptr<gc::IknpSenderState> ot_sender_;        ///< Garbler, Iknp backend
  std::unique_ptr<gc::IknpReceiverState> ot_receiver_;    ///< Evaluator, Iknp backend
  std::unique_ptr<gc::RandomOtPoolSender> otpre_sender_;  ///< Garbler, Precomp backend
  std::unique_ptr<gc::RandomOtPoolReceiver> otpre_receiver_;  ///< Evaluator, Precomp
};

// The two endpoints share one stepwise schedule; the hook split exists so
// the in-process lock-step driver can interleave the two roles on a single
// thread over a non-blocking duplex. Over a blocking transport (socket,
// threaded pipe) call run() and never touch the hooks. Cross-party ordering
// contract (what run() performs for one role, the lock-step driver for two):
//
//   E.start_request  ->  G.start  ->  E.start_finish
//   per cycle:
//     E.begin_request  ->  G.begin  ->  E.begin_finish
//     G.work  ->  E.work            (each returns is_final; they must agree)
//     E.sample  ->  G.sample
//     G.latch, E.latch              (order irrelevant)
//     E.ot_refill_request  ->  G.ot_refill  ->  E.ot_refill_finish
//   G.finish / E.finish
//
// The ot_refill_* hooks are the OT maintenance slot: under OtBackend::Precomp
// they top the random-OT pool back up (one bulk IKNP batch) whenever it falls
// below its low-water mark, so the precompute work runs between cycles — in
// the window where the evaluator otherwise idles waiting for the next
// cycle's tables — instead of stalling an online derandomization batch.
// No-ops under Ideal/Iknp. Both sides derive the refill decision from the
// shared pool fill level, so the hooks must stay in the schedule for every
// backend and transport (run() includes them).
//
// Any abort (exception out of a hook or out of run()) must be followed by
// abort(), which resets the warm OT state; run() does this itself.

/// Alice's endpoint: plans publicly, generates labels, garbles, serves OT
/// sends, decodes outputs.
class GarblerEndpoint {
 public:
  /// `warm` (optional) must be a Role::Garbler WarmState; its caches and OT
  /// state persist across endpoint instances. Throws std::invalid_argument
  /// on a wrong-role WarmState or inconsistent options.
  GarblerEndpoint(const netlist::Netlist& nl, const PartyOptions& opts, gc::Transport& tx,
                  WarmState* warm = nullptr);
  ~GarblerEndpoint();

  /// Runs the whole protocol over the transport (blocking). On any failure
  /// the warm OT state is reset before the exception propagates.
  [[nodiscard]] RunResult run(const netlist::BitVec& alice_bits,
                              const netlist::BitVec& pub_bits = {},
                              const StreamProvider* streams = nullptr);

  // Stepwise schedule hooks (see the ordering contract above).
  void start(const netlist::BitVec& alice_bits, const netlist::BitVec& pub_bits,
             const StreamProvider* streams);
  void begin(std::uint64_t cycle);
  [[nodiscard]] bool work(std::uint64_t cycle);  ///< plans + garbles; true = final cycle
  void sample();
  void latch();
  void ot_refill();  ///< OT maintenance slot (Precomp pool top-up; else no-op)
  [[nodiscard]] RunResult finish();
  /// Resets the warm OT state after a failed run (idempotent, noexcept).
  void abort() noexcept;

  /// The plan work() derived for the current cycle (valid until the next
  /// work()). A co-located follower endpoint reads it; see
  /// EvaluatorEndpoint's plan-following constructor.
  [[nodiscard]] const CyclePlan& plan() const { return plan_; }

 private:
  friend class EvaluatorEndpoint;  ///< plan-following mode reads the planner

  [[nodiscard]] bool decide_final(std::uint64_t cycle) const;

  const netlist::Netlist& nl_;
  PartyOptions opts_;
  bool halt_driven_;
  std::uint64_t cycle_count_;
  WarmState* warm_;
  gc::Transport* tx_;
  Planner planner_;
  std::unique_ptr<GarblerSession> session_;
  const StreamProvider* streams_ = nullptr;
  netlist::BitVec alice_bits_;
  netlist::BitVec pub_bits_;
  CyclePlan plan_{};
  RunResult result_;
  RunStats stats_;
};

/// Bob's endpoint: plans publicly, requests OTs for his choice bits,
/// evaluates garbled tables, returns output labels for decoding.
class EvaluatorEndpoint {
 public:
  /// `warm` (optional) must be a Role::Evaluator WarmState.
  EvaluatorEndpoint(const netlist::Netlist& nl, const PartyOptions& opts, gc::Transport& tx,
                    WarmState* warm = nullptr);

  /// In-process plan-following fast path (the lock-step driver's
  /// composition): the endpoint owns NO planner and consumes the co-located
  /// `leader` garbler endpoint's plan each cycle instead of re-deriving it.
  /// The plan is public and both parties' planners provably derive the same
  /// one (plan_test pins it), so inside one address space — one trust
  /// domain — planning once is pure wall-clock savings with identical
  /// results. A *networked* evaluator must never follow: accepting the
  /// peer's plan would let a garbler unilaterally reclassify wires. The
  /// leader must outlive this endpoint and be driven in the shared-schedule
  /// order (leader.work before this->work each cycle).
  EvaluatorEndpoint(const netlist::Netlist& nl, const PartyOptions& opts, gc::Transport& tx,
                    WarmState* warm, const GarblerEndpoint& leader);
  ~EvaluatorEndpoint();

  /// Runs the whole protocol over the transport (blocking). The result's
  /// sampled_outputs stay empty (only the garbler decodes); stats carry this
  /// side's planner counters, OT ledger and received-table digest.
  [[nodiscard]] RunResult run(const netlist::BitVec& bob_bits,
                              const netlist::BitVec& pub_bits = {},
                              const StreamProvider* streams = nullptr);

  // Stepwise schedule hooks (see the ordering contract above). The
  // *_request halves emit the receiver-first OT messages and must run before
  // the garbler's matching phase under a lock-step schedule.
  void start_request(const netlist::BitVec& bob_bits, const netlist::BitVec& pub_bits,
                     const StreamProvider* streams);
  void start_finish();
  void begin_request(std::uint64_t cycle);
  void begin_finish();
  [[nodiscard]] bool work(std::uint64_t cycle);  ///< plans + evaluates; true = final cycle
  void sample();
  void latch();
  void ot_refill_request();  ///< OT maintenance slot, receiver-first halves
  void ot_refill_finish();
  [[nodiscard]] RunResult finish();
  void abort() noexcept;

 private:
  [[nodiscard]] bool decide_final(std::uint64_t cycle) const;

  const netlist::Netlist& nl_;
  PartyOptions opts_;
  bool halt_driven_;
  std::uint64_t cycle_count_;
  WarmState* warm_;
  gc::Transport* tx_;
  const GarblerEndpoint* leader_ = nullptr;  ///< plan-following mode when set
  std::unique_ptr<Planner> planner_;         ///< null in plan-following mode
  std::unique_ptr<EvaluatorSession> session_;
  const StreamProvider* streams_ = nullptr;
  netlist::BitVec bob_bits_;
  netlist::BitVec pub_bits_;
  CyclePlan plan_{};
  RunResult result_;
  RunStats stats_;
};

}  // namespace arm2gc::core
