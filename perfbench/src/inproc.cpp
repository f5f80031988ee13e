// The in-process workloads: a warm Arm2Gc::Session (hamming160-warm,
// matmult3-warm) or a fresh Arm2Gc::run per request (hamming160-oneshot),
// one caller in a closed loop.
#include <stdexcept>
#include <string>

#include "common.h"
#include "replica.h"

namespace perfbench {

using arm2gc::arm::Arm2Gc;
using arm2gc::arm::Arm2GcResult;

namespace {

/// Service-layer and load-generator metrics of a workload whose traced pass
/// does not measure the served path read zero.
void zero_serve_layers(Report& r) {
  r.set("serve.warm_hit_ratio", 0, "ratio");
  for (const char* name : {"serve.hello_rejected", "serve.runs_failed", "load.backlog_end"}) {
    r.set(name, 0, "count");
  }
  r.set("serve.send_queue_high_water_kb", 0, "KiB");
  for (const char* name : {"load.queue_ms_p50", "load.service_ms_p50", "load.lag_ms_max"}) {
    r.set(name, 0, "ms");
  }
}

}  // namespace

void run_inproc(const WorkloadDef& w, const Options& o, Report& r) {
  const bool warm = w.kind == WorkloadDef::Kind::Warm;
  const arm2gc::core::ExecOptions exec = bench_exec();
  InputGen gen(o.seed, w.name);

  std::unique_ptr<Arm2Gc> m;
  std::unique_ptr<Arm2Gc::Session> session;
  auto run_one = [&](const std::vector<std::uint32_t>& alice,
                     const std::vector<std::uint32_t>& bob) -> Arm2GcResult {
    return warm ? session->run(alice, bob)
                : m->run(alice, bob, 1u << 20, arm2gc::gc::Scheme::HalfGates, exec);
  };

  // Setup: netlist build, Session, and the warm-up runs that fill the plan
  // caches and OT pools.
  std::vector<double> setup_s;
  auto setup = [&] {
    session.reset();
    m.reset();
    const Clock::time_point t0 = Clock::now();
    const arm2gc::programs::Program prog = w.make();
    m = std::make_unique<Arm2Gc>(prog.cfg, prog.words);
    if (warm) session = std::make_unique<Arm2Gc::Session>(*m, exec);
    for (std::size_t i = 0; i < w.warmup_runs; ++i) {
      const std::vector<std::uint32_t> alice = gen.words(w.alice_words);
      const std::vector<std::uint32_t> bob = gen.words(w.bob_words);
      const Arm2GcResult res = run_one(alice, bob);
      const std::string err = check_outputs(*m, alice, bob, res.outputs, res.cycles);
      if (!err.empty()) throw std::runtime_error("warm-up run: " + err);
    }
    setup_s.push_back(ms_since(t0) / 1e3);
  };

  if (o.trace) {
    r.set("arm.build_ms", median_build_ms(w), "ms");
    const arm2gc::programs::Program prog = w.make();
    m = std::make_unique<Arm2Gc>(prog.cfg, prog.words);
    const double seconds = w.served_layers ? o.seconds / 2 : o.seconds;
    const StatTotals totals = traced_pass(w, *m, gen, seconds, o.runs, r);
    totals.export_layers(r);
    totals.export_counters(r);
    if (w.served_layers) {
      served_layers(w, gen, seconds, o.runs, r);
    } else {
      zero_serve_layers(r);
    }
    return;
  }

  setup();
  const std::uint64_t plan_ev0 = warm ? session->garbler_warm().plan_cache().evictions() : 0;
  const std::uint64_t cone_ev0 = warm ? session->garbler_warm().cone_memo().evictions() : 0;
  StatTotals totals;
  std::vector<double> run_ms;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (o.runs > 0 ? i >= o.runs : ms_since(start) >= o.seconds * 1e3) break;
    const std::vector<std::uint32_t> alice = gen.words(w.alice_words);
    const std::vector<std::uint32_t> bob = gen.words(w.bob_words);
    ++r.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      const Arm2GcResult res = run_one(alice, bob);
      const double ms = ms_since(t0);
      const std::string err = check_outputs(*m, alice, bob, res.outputs, res.cycles);
      if (!err.empty()) {
        r.fail(err);
        continue;
      }
      run_ms.push_back(ms);
      totals.add(res.stats, res.stats.comm);
    } catch (const std::exception& ex) {
      r.fail(std::string("exception: ") + ex.what());
    }
  }
  const double elapsed_s = ms_since(start) / 1e3;
  if (warm) {
    r.counters["plan_cache_evictions"] = session->garbler_warm().plan_cache().evictions() - plan_ev0;
    r.counters["cone_memo_evictions"] = session->garbler_warm().cone_memo().evictions() - cone_ev0;
  }
  // Peak memory of one setup plus the steady phase; the further setups that
  // `setup_s` takes its median over come after, each replacing the last.
  const double rss_mb = peak_rss_mb();
  while (setup_s.size() < kSetupReps) setup();

  r.set("run_ms_p50", quantile(run_ms, 0.5), "ms");
  r.set("run_ms_p90", quantile(run_ms, 0.9), "ms");
  r.set("runs_per_s", static_cast<double>(run_ms.size()) / elapsed_s, "1/s");
  r.set("setup_s", quantile(setup_s, 0.5), "s");
  r.set("peak_rss_mb", rss_mb, "MiB");
  r.set("comm_kb_per_run", totals.per_run(totals.comm_total()) / 1024.0, "KiB");
  r.set("garbled_non_xor_per_run", totals.per_run(totals.garbled_non_xor), "count");
  r.info["samples"] = static_cast<double>(run_ms.size());
  totals.export_counters(r);
}

}  // namespace perfbench
