// In-process two-party driver (paper §3): a thin composition of the two
// single-role endpoints (core/party.h) over an in-process transport. The
// endpoints own all protocol state; this layer only chooses the transport
// and interleaves the shared cycle schedule:
//
//   GarblerEndpoint    (core/party.h)  Alice: planner + labels + OT sends
//   EvaluatorEndpoint  (core/party.h)  Bob: planner + eval + OT choices
//
// Transports: the lock-step in-memory duplex (single thread, exactly the
// paper's sequential schedule, the two endpoints' hooks interleaved) or a
// threaded bounded pipe that lets the garbler run ahead of the evaluator
// (each endpoint simply run()s on its own thread — the same code path a
// socket deployment uses). All transports produce bit-identical results,
// digests and byte counts; tools/arm2gc_party proves the same for two
// separate OS processes over TCP (gc/transport_socket.h).
#pragma once

#include <cstdint>

#include "core/party.h"
#include "gc/transport.h"
#include "netlist/netlist.h"

namespace arm2gc::core {

enum class TransportKind : std::uint8_t {
  InMemory,      ///< lock-step FIFOs, single thread
  ThreadedPipe,  ///< garbler on a worker thread, bounded-ring backpressure
};

/// Execution tuning that never changes results — only how they are computed.
struct ExecOptions {
  TransportKind transport = TransportKind::InMemory;
  /// Reuse classification across cycles with identical public entry state.
  /// false disables all plan reuse (the from-scratch baseline for
  /// differential tests).
  bool plan_cache = true;
  std::size_t plan_cache_budget_bytes = 64u << 20;
  /// Optional externally owned per-role warm state (plan cache + IKNP
  /// extension state) persisting across runs — Arm2Gc::Session supplies
  /// these. Role-scoped by construction: a Role::Garbler WarmState for the
  /// garbler slot, Role::Evaluator for the evaluator slot (endpoints reject
  /// a mismatch), so the two party threads can never share mutable state.
  WarmState* garbler_warm = nullptr;
  WarmState* evaluator_warm = nullptr;
  /// ThreadedPipe ring capacity per direction, in 16-byte blocks; this is
  /// both the garbler's run-ahead window and the transport memory bound.
  std::size_t pipe_blocks = 1u << 15;
  /// OT backend for Bob's input labels: the ideal-functionality stand-in or
  /// real IKNP extension (gc/otext.h). Outputs, garbled tables and every
  /// non-OT byte count are bit-identical across backends; only OT traffic
  /// and timing differ.
  gc::OtBackend ot_backend = gc::OtBackend::Ideal;
  /// Precomp random-OT pool target per refill (gc/otpre.h). Public: the
  /// refill schedule is a deterministic function of it, so both parties must
  /// use the same value. Ignored by the other backends.
  std::size_t ot_pool = gc::kDefaultOtPoolBatch;
  /// Must be 1; removed once perfbench drops it (require_single_thread).
  std::size_t threads = 1;
  /// No effect (the planner has no cone memo or segmentation).
  std::size_t cone_memo_budget_bytes = 32u << 20;  ///< removed once perfbench/ stops naming it
  std::size_t cone_target_gates = 512;             ///< removed once perfbench/ stops naming it
};

struct RunOptions {
  Mode mode = Mode::SkipGate;
  gc::Scheme scheme = gc::Scheme::HalfGates;
  /// Run exactly this many cycles (sequential circuits with a known schedule).
  std::optional<std::uint64_t> fixed_cycles;
  /// Public wire that announces termination (the processor's halt signal);
  /// the cycle where it becomes 1 is the final cycle. Must be public.
  std::optional<netlist::WireId> halt_wire;
  /// Safety bound when running halt-driven.
  std::uint64_t max_cycles = 1u << 20;
  /// Protocol seed; the in-process driver also uses it as both parties'
  /// private seed, which keeps runs byte-reproducible (a two-process
  /// deployment seeds each party privately via PartyOptions instead).
  crypto::Block seed = kDefaultProtocolSeed;
  ExecOptions exec;
};

/// Expands a driver-style RunOptions into one role's PartyOptions (the
/// in-process determinism convention: private_seed == protocol seed).
[[nodiscard]] PartyOptions party_options(Role role, const RunOptions& opts);

/// Two-party sequential garbling driver: constructs both endpoints over an
/// in-process duplex and runs the shared schedule.
class SkipGateDriver {
 public:
  SkipGateDriver(const netlist::Netlist& nl, RunOptions opts);

  /// Executes the protocol. `alice_bits`/`bob_bits`/`pub_bits` bind fixed
  /// inputs and flip-flop initial values (shared index space per owner).
  RunResult run(const netlist::BitVec& alice_bits, const netlist::BitVec& bob_bits,
                const netlist::BitVec& pub_bits = {}, const StreamProvider* streams = nullptr);

 private:
  const netlist::Netlist& nl_;
  RunOptions opts_;
};

}  // namespace arm2gc::core
