#include "replica.h"

#include <stdexcept>
#include <string>

#include "gc/transport.h"

namespace perfbench {

using arm2gc::arm::Arm2Gc;
using arm2gc::arm::Arm2GcResult;
namespace core = arm2gc::core;

PartyTimes& PartyTimes::operator+=(const PartyTimes& o) {
  start += o.start;
  begin += o.begin;
  garbler_work += o.garbler_work;
  evaluator_work += o.evaluator_work;
  sample += o.sample;
  latch += o.latch;
  ot_refill += o.ot_refill;
  finish += o.finish;
  wall += o.wall;
  return *this;
}

PlanTimes& PlanTimes::operator+=(const PlanTimes& o) {
  setup += o.setup;
  begin += o.begin;
  forward += o.forward;
  finish += o.finish;
  latch += o.latch;
  cycles += o.cycles;
  emitted += o.emitted;
  return *this;
}

namespace {

/// Accumulates the wall time of one hook group into `slot`.
class HookTimer {
 public:
  explicit HookTimer(double& slot) : slot_(slot), t0_(Clock::now()) {}
  ~HookTimer() { slot_ += ms_since(t0_); }
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;

 private:
  double& slot_;
  Clock::time_point t0_;
};

/// The WarmState options Arm2Gc::Session derives for its own roles.
core::WarmState::Options session_warm_options(const core::ExecOptions& exec) {
  core::WarmState::Options w;
  w.plan_cache_budget_bytes = exec.plan_cache_budget_bytes;
  w.cone_memo_budget_bytes = exec.cone_memo_budget_bytes;
  w.ot_backend = exec.ot_backend;
  w.ot_pool = exec.ot_pool;
  w.seed = core::RunOptions{}.seed;
  return w;
}

/// "" when the replica reproduced the driver's run byte for byte.
std::string compare_runs(const Arm2GcResult& ref, const Arm2GcResult& rep) {
  if (rep.outputs != ref.outputs) return "outputs";
  if (rep.cycles != ref.cycles) return "cycles";
  if (!(rep.stats.table_digest == ref.stats.table_digest)) return "table_digest";
  if (rep.stats.garbled_non_xor != ref.stats.garbled_non_xor) return "garbled_non_xor";
  const arm2gc::gc::CommStats& a = ref.stats.comm;
  const arm2gc::gc::CommStats& b = rep.stats.comm;
  if (a.garbled_table_bytes != b.garbled_table_bytes || a.input_label_bytes != b.input_label_bytes ||
      a.ot_bytes != b.ot_bytes || a.output_bytes != b.output_bytes) {
    return "comm bytes";
  }
  return "";
}

}  // namespace

std::string check_outputs(const Arm2Gc& m, std::span<const std::uint32_t> alice,
                          std::span<const std::uint32_t> bob,
                          const std::vector<std::uint32_t>& outputs, std::uint64_t cycles) {
  const Arm2GcResult iss = m.run_reference(alice, bob);
  if (outputs != iss.outputs) return "outputs differ from the ISS";
  if (cycles != iss.cycles) return "cycle count differs from the ISS";
  return "";
}

ReplicaRun run_replica(const Arm2Gc& m, std::span<const std::uint32_t> alice,
                       std::span<const std::uint32_t> bob, const core::ExecOptions& exec) {
  ReplicaRun out;
  PartyTimes& t = out.t;
  const Clock::time_point wall0 = Clock::now();
  const arm2gc::netlist::Netlist& nl = m.cpu().nl;

  // Mirrors run_lockstep in core/skipgate.cpp, hook for hook.
  std::unique_ptr<arm2gc::gc::InMemoryDuplex> duplex;
  std::unique_ptr<core::GarblerEndpoint> g;
  std::unique_ptr<core::EvaluatorEndpoint> e;
  {
    HookTimer ht(t.start);
    duplex = std::make_unique<arm2gc::gc::InMemoryDuplex>();
    g = std::make_unique<core::GarblerEndpoint>(nl, m.party_options(core::Role::Garbler,
                                                                     1u << 20, arm2gc::gc::Scheme::HalfGates, exec),
                                                duplex->garbler_end(), exec.garbler_warm);
    e = std::make_unique<core::EvaluatorEndpoint>(
        nl, m.party_options(core::Role::Evaluator, 1u << 20, arm2gc::gc::Scheme::HalfGates, exec),
        duplex->evaluator_end(), exec.evaluator_warm, *g);
    const arm2gc::netlist::BitVec alice_bits = m.alice_input_bits(alice);
    const arm2gc::netlist::BitVec bob_bits = m.bob_input_bits(bob);
    e->start_request(bob_bits, {}, nullptr);
    g->start(alice_bits, {}, nullptr);
    e->start_finish();
  }
  try {
    for (std::uint64_t cycle = 0;; ++cycle) {
      {
        HookTimer ht(t.begin);
        e->begin_request(cycle);
        g->begin(cycle);
        e->begin_finish();
      }
      bool final_g = false;
      bool final_e = false;
      {
        HookTimer ht(t.garbler_work);
        final_g = g->work(cycle);
      }
      {
        HookTimer ht(t.evaluator_work);
        final_e = e->work(cycle);
      }
      {
        HookTimer ht(t.sample);
        e->sample();
        g->sample();
      }
      if (final_g != final_e) throw std::logic_error("replica: endpoints disagree on the final cycle");
      if (final_g) break;
      {
        HookTimer ht(t.latch);
        g->latch();
        e->latch();
      }
      {
        HookTimer ht(t.ot_refill);
        e->ot_refill_request();
        g->ot_refill();
        e->ot_refill_finish();
      }
    }
  } catch (...) {
    g->abort();
    e->abort();
    throw;
  }
  {
    HookTimer ht(t.finish);
    core::RunResult r = g->finish();
    const core::RunStats eval_stats = e->finish().stats;
    r.stats.ot_wall_ns += eval_stats.ot_wall_ns;
    r.stats.ot_offline_wall_ns += eval_stats.ot_offline_wall_ns;
    r.stats.comm = duplex->stats();
    r.stats.transport_high_water_blocks = duplex->high_water_blocks();
    out.result.cycles = r.final_cycle + 1;
    out.result.stats = r.stats;
    out.result.outputs = m.decode_output_bits(r.final_outputs);
    e.reset();
    g.reset();
    duplex.reset();
  }
  t.wall = ms_since(wall0);
  return out;
}

PlannerReplay::PlannerReplay(const Arm2Gc& m, bool warm) : m_(&m) {
  if (warm) {
    const core::ExecOptions defaults;
    cache_ = std::make_unique<core::PlanCache>(defaults.plan_cache_budget_bytes);
    memo_ = std::make_unique<core::ConeMemo>(defaults.cone_memo_budget_bytes);
  }
}

PlanTimes PlannerReplay::run() {
  PlanTimes t;
  const core::ExecOptions defaults;
  const Clock::time_point t0 = Clock::now();
  core::PlannerOptions po;
  po.mode = core::Mode::SkipGate;
  po.seed = core::RunOptions{}.seed;
  po.cache = true;
  po.cache_budget_bytes = defaults.plan_cache_budget_bytes;
  po.shared_cache = cache_.get();
  po.cone_memo = true;
  po.cone_memo_budget_bytes = defaults.cone_memo_budget_bytes;
  po.shared_cone_memo = memo_.get();
  po.cone_target_gates = defaults.cone_target_gates;
  core::Planner p(m_->cpu().nl, po);
  p.reset({});
  t.setup = ms_since(t0);

  const arm2gc::netlist::WireId halt = m_->cpu().halt_wire;
  const std::uint64_t max_cycles = 1u << 20;
  for (std::uint64_t cycle = 0;; ++cycle) {
    {
      HookTimer ht(t.begin);
      p.begin_cycle({});
    }
    {
      HookTimer ht(t.forward);
      p.forward();
    }
    // The endpoints' termination rule (public halt wire).
    if (!p.wire_public(halt)) throw std::runtime_error("replay: halt wire became secret");
    const bool is_final = p.wire_value(halt);
    if (!is_final && cycle + 1 == max_cycles) throw std::runtime_error("replay: no halt");
    core::CyclePlan plan;
    {
      HookTimer ht(t.finish);
      plan = p.finish(is_final);
    }
    ++t.cycles;
    t.emitted += plan.emitted;
    if (is_final) break;
    HookTimer ht(t.latch);
    p.latch(plan);
  }
  return t;
}

StatTotals traced_pass(const WorkloadDef& w, const Arm2Gc& m, InputGen& gen, double seconds,
                       std::size_t fixed_runs, Report& r) {
  const bool warm = w.kind != WorkloadDef::Kind::OneShot;
  const core::ExecOptions exec = bench_exec();
  std::unique_ptr<Arm2Gc::Session> session;
  std::unique_ptr<core::WarmState> rep_g;
  std::unique_ptr<core::WarmState> rep_e;
  core::ExecOptions rep_exec = exec;
  if (warm) {
    session = std::make_unique<Arm2Gc::Session>(m, exec);
    rep_g = std::make_unique<core::WarmState>(core::Role::Garbler, session_warm_options(exec));
    rep_e = std::make_unique<core::WarmState>(core::Role::Evaluator, session_warm_options(exec));
    rep_exec.garbler_warm = rep_g.get();
    rep_exec.evaluator_warm = rep_e.get();
  }
  PlannerReplay replay(m, warm);

  StatTotals ref_totals;
  PartyTimes party;
  PlanTimes plan;
  std::vector<double> ref_ms;
  std::vector<double> rep_ms;

  // Returns a failure description, or "" on a clean iteration.
  auto iteration = [&](bool timed) -> std::string {
    const std::vector<std::uint32_t> alice = gen.words(w.alice_words);
    const std::vector<std::uint32_t> bob = gen.words(w.bob_words);
    const Clock::time_point t0 = Clock::now();
    const Arm2GcResult ref =
        warm ? session->run(alice, bob) : m.run(alice, bob, 1u << 20, arm2gc::gc::Scheme::HalfGates, exec);
    const double ms = ms_since(t0);
    std::string err = check_outputs(m, alice, bob, ref.outputs, ref.cycles);
    if (!err.empty()) return err;
    const ReplicaRun rep = run_replica(m, alice, bob, rep_exec);
    err = compare_runs(ref, rep.result);
    if (!err.empty()) return "replica differs from the lock-step driver: " + err;
    const PlanTimes pt = replay.run();
    if (pt.cycles != ref.cycles || pt.emitted != ref.stats.garbled_non_xor) {
      return "planner replay differs from the run's trajectory";
    }
    if (timed) {
      ref_totals.add(ref.stats, ref.stats.comm);
      ref_ms.push_back(ms);
      rep_ms.push_back(rep.t.wall);
      party += rep.t;
      plan += pt;
    }
    return "";
  };

  for (std::size_t i = 0; i < w.warmup_runs; ++i) {
    const std::string err = iteration(false);
    if (!err.empty()) throw std::runtime_error("traced warm-up: " + err);
  }
  const std::uint64_t plan_ev0 = warm ? session->garbler_warm().plan_cache().evictions() : 0;
  const std::uint64_t cone_ev0 = warm ? session->garbler_warm().cone_memo().evictions() : 0;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (fixed_runs > 0 ? i >= fixed_runs : ms_since(start) >= seconds * 1e3) break;
    ++r.attempted;
    try {
      const std::string err = iteration(true);
      if (!err.empty()) r.fail(err);
    } catch (const std::exception& ex) {
      r.fail(std::string("exception: ") + ex.what());
    }
  }

  const double n = static_cast<double>(rep_ms.empty() ? 1 : rep_ms.size());
  r.set("party.start_ms", party.start / n, "ms");
  r.set("party.begin_ms", party.begin / n, "ms");
  r.set("party.garbler_work_ms", party.garbler_work / n, "ms");
  r.set("party.evaluator_work_ms", party.evaluator_work / n, "ms");
  r.set("party.sample_ms", party.sample / n, "ms");
  r.set("party.latch_ms", party.latch / n, "ms");
  r.set("party.ot_refill_ms", party.ot_refill / n, "ms");
  r.set("party.finish_ms", party.finish / n, "ms");
  r.set("party.coverage_pct", party.wall > 0 ? 100.0 * party.hooks() / party.wall : 0.0, "%");
  r.set("plan.setup_ms", plan.setup / n, "ms");
  r.set("plan.begin_ms", plan.begin / n, "ms");
  r.set("plan.forward_ms", plan.forward / n, "ms");
  r.set("plan.finish_ms", plan.finish / n, "ms");
  r.set("plan.latch_ms", plan.latch / n, "ms");
  r.set("garble.self_ms", (party.garbler_work - plan.forward - plan.finish) / n, "ms");
  r.set("eval.self_ms", party.evaluator_work / n, "ms");
  const double ref_p50 = quantile(ref_ms, 0.5);
  r.set("tracing.overhead_pct",
        ref_p50 > 0 ? 100.0 * (quantile(rep_ms, 0.5) - ref_p50) / ref_p50 : 0.0, "%");
  r.info["traced.runs"] = static_cast<double>(rep_ms.size());
  r.info["traced.reference_ms_p50"] = ref_p50;
  r.info["traced.replica_ms_p50"] = quantile(rep_ms, 0.5);

  if (warm) {
    const core::WarmState& ws = session->garbler_warm();
    r.set("plan.cache_entries", static_cast<double>(ws.plan_cache().entries()), "count");
    r.set("plan.cache_evictions_per_run",
          static_cast<double>(ws.plan_cache().evictions() - plan_ev0) / n, "count");
    r.set("plan.cone_evictions_per_run",
          static_cast<double>(ws.cone_memo().evictions() - cone_ev0) / n, "count");
  } else {
    // One-shot runs keep no cache across runs: nothing is held or evicted.
    r.set("plan.cache_entries", 0, "count");
    r.set("plan.cache_evictions_per_run", 0, "count");
    r.set("plan.cone_evictions_per_run", 0, "count");
  }
  return ref_totals;
}

}  // namespace perfbench
