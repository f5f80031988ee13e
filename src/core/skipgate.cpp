#include "core/skipgate.h"

#include <exception>
#include <stdexcept>
#include <thread>

namespace arm2gc::core {

namespace {

using netlist::BitVec;
using netlist::Netlist;

/// Lock-step schedule: both endpoints interleaved on one thread over the
/// non-blocking in-memory duplex, in exactly the cross-party order the
/// endpoint contract specifies (core/party.h). The evaluator runs in
/// plan-following mode — one address space is one trust domain, and both
/// parties' planners provably derive identical plans (plan_test), so
/// planning once is pure wall-clock savings with identical results; the
/// driver reports the garbler's counters (which match a two-process run)
/// plus the evaluator's OT wall time (the lock-step run spends both
/// parties' time on one thread).
RunResult run_lockstep(const Netlist& nl, const RunOptions& opts, const BitVec& alice_bits,
                       const BitVec& bob_bits, const BitVec& pub_bits,
                       const StreamProvider* streams) {
  gc::InMemoryDuplex duplex;
  GarblerEndpoint garbler(nl, party_options(Role::Garbler, opts), duplex.garbler_end(),
                          opts.exec.garbler_warm);
  EvaluatorEndpoint evaluator(nl, party_options(Role::Evaluator, opts), duplex.evaluator_end(),
                              opts.exec.evaluator_warm, garbler);
  try {
    evaluator.start_request(bob_bits, pub_bits, streams);
    garbler.start(alice_bits, pub_bits, streams);
    evaluator.start_finish();
    for (std::uint64_t cycle = 0;; ++cycle) {
      evaluator.begin_request(cycle);
      garbler.begin(cycle);
      evaluator.begin_finish();
      const bool final_g = garbler.work(cycle);
      const bool final_e = evaluator.work(cycle);
      evaluator.sample();
      garbler.sample();
      if (final_g != final_e) {
        // Unreachable with intact planners: termination is a deterministic
        // public decision both sides compute identically.
        throw std::logic_error("skipgate: endpoints disagree on the final cycle");
      }
      if (final_g) break;
      garbler.latch();
      evaluator.latch();
      // OT maintenance slot (receiver-first, like the binding phases): lets
      // the Precomp backend top up its random-OT pool between cycles. No-ops
      // under Ideal/Iknp, but the slot stays in the schedule unconditionally
      // so every backend sees the same cross-party ordering.
      evaluator.ot_refill_request();
      garbler.ot_refill();
      evaluator.ot_refill_finish();
    }
  } catch (...) {
    garbler.abort();
    evaluator.abort();
    throw;
  }
  RunResult result = garbler.finish();
  const RunStats eval_stats = evaluator.finish().stats;
  result.stats.ot_wall_ns += eval_stats.ot_wall_ns;
  result.stats.ot_offline_wall_ns += eval_stats.ot_offline_wall_ns;
  result.stats.comm = duplex.stats();
  result.stats.transport_high_water_blocks = duplex.high_water_blocks();
  return result;
}

/// True iff the exception is the transport's shutdown signal (raised on a
/// peer that was unblocked by close()), which only ever masks the real error.
bool is_transport_closed(const std::exception_ptr& p) {
  try {
    std::rethrow_exception(p);
  } catch (const gc::TransportClosed&) {
    return true;
  } catch (...) {
    return false;
  }
}

RunResult run_threaded(const Netlist& nl, const RunOptions& opts, const BitVec& alice_bits,
                       const BitVec& bob_bits, const BitVec& pub_bits,
                       const StreamProvider* streams) {
  gc::ThreadedPipeDuplex duplex(opts.exec.pipe_blocks);
  RunResult result;
  std::exception_ptr garbler_error;
  std::exception_ptr evaluator_error;

  // Garbler endpoint on a worker thread: exactly the code path a remote
  // garbler service runs, just over the pipe instead of a socket. It runs
  // ahead of the evaluator until the pipe's backpressure stalls it; output
  // decoding is the only point where it waits for the evaluator.
  std::thread garbler_thread([&] {
    try {
      GarblerEndpoint garbler(nl, party_options(Role::Garbler, opts), duplex.garbler_end(),
                              opts.exec.garbler_warm);
      result = garbler.run(alice_bits, pub_bits, streams);
    } catch (...) {
      garbler_error = std::current_exception();
      duplex.close();
    }
  });

  // Evaluator endpoint on the calling thread, with its own planner making
  // the same deterministic decisions.
  try {
    EvaluatorEndpoint evaluator(nl, party_options(Role::Evaluator, opts),
                                duplex.evaluator_end(), opts.exec.evaluator_warm);
    (void)evaluator.run(bob_bits, pub_bits, streams);
  } catch (...) {
    evaluator_error = std::current_exception();
    duplex.close();
  }
  garbler_thread.join();

  if (garbler_error || evaluator_error) {
    // Both parties compute termination errors deterministically; a
    // "transport: closed" error is only ever the echo of the peer's failure.
    if (garbler_error && evaluator_error) {
      std::rethrow_exception(is_transport_closed(garbler_error) &&
                                     !is_transport_closed(evaluator_error)
                                 ? evaluator_error
                                 : garbler_error);
    }
    std::rethrow_exception(garbler_error ? garbler_error : evaluator_error);
  }

  result.stats.comm = duplex.stats();
  result.stats.transport_high_water_blocks = duplex.high_water_blocks();
  return result;
}

}  // namespace

PartyOptions party_options(Role role, const RunOptions& opts) {
  (void)role;  // the expansion is role-symmetric; the role picks the endpoint
  PartyOptions p;
  p.mode = opts.mode;
  p.fixed_cycles = opts.fixed_cycles;
  p.halt_wire = opts.halt_wire;
  p.max_cycles = opts.max_cycles;
  p.protocol_seed = opts.seed;
  p.private_seed = opts.seed;  // in-process determinism convention
  p.plan_cache = opts.exec.plan_cache;
  p.plan_cache_budget_bytes = opts.exec.plan_cache_budget_bytes;
  p.ot_backend = opts.exec.ot_backend;
  p.ot_pool = opts.exec.ot_pool;
  require_single_thread(opts.exec.threads, "ExecOptions::threads");
  return p;
}

SkipGateDriver::SkipGateDriver(const Netlist& nl, RunOptions opts) : nl_(nl), opts_(opts) {}

RunResult SkipGateDriver::run(const BitVec& alice_bits, const BitVec& bob_bits,
                              const BitVec& pub_bits, const StreamProvider* streams) {
  // Role-scoped WarmState makes cross-party sharing and role mixups
  // construction errors; surface them before any thread or transport is set
  // up (the endpoints re-check, but a worker thread's error would race the
  // peer's).
  if (opts_.exec.garbler_warm != nullptr &&
      opts_.exec.garbler_warm == opts_.exec.evaluator_warm) {
    throw std::invalid_argument("skipgate: one WarmState handed to both parties");
  }
  if (opts_.exec.garbler_warm != nullptr &&
      opts_.exec.garbler_warm->role() != Role::Garbler) {
    throw std::invalid_argument("skipgate: garbler slot holds an evaluator-role WarmState");
  }
  if (opts_.exec.evaluator_warm != nullptr &&
      opts_.exec.evaluator_warm->role() != Role::Evaluator) {
    throw std::invalid_argument("skipgate: evaluator slot holds a garbler-role WarmState");
  }
  if (opts_.exec.transport == TransportKind::ThreadedPipe) {
    return run_threaded(nl_, opts_, alice_bits, bob_bits, pub_bits, streams);
  }
  return run_lockstep(nl_, opts_, alice_bits, bob_bits, pub_bits, streams);
}

}  // namespace arm2gc::core
