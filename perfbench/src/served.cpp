// hamming160-served: one GarblerService (1 shard) over loopback TCP, driven
// open-loop at a fixed offered rate by networked run_client evaluators, each
// with its own planner and warm evaluator WarmState.
//
// The service registers one ProgramSpec, so Alice's input is bound for the
// service's lifetime (drawn from the seed at setup); every request carries
// fresh private inputs for Bob.
#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "replica.h"
#include "serve/client.h"
#include "serve/service.h"

namespace perfbench {

using arm2gc::arm::Arm2Gc;
namespace core = arm2gc::core;
namespace serve = arm2gc::serve;

namespace {

/// Offered load, runs per second: a constant (about half of what one shard
/// sustained on a 4-vCPU Xeon when the benchmark was defined) so a faster
/// service shows lower latency rather than a higher load.
constexpr double kOfferedRate = 15.0;
/// Client connections in flight at most (one worker thread each).
constexpr std::size_t kClients = 2;
const char* const kProgramName = "hamming160";

/// Everything one setup builds; destroyed as a unit (service first).
struct Deployment {
  std::unique_ptr<Arm2Gc> m;
  std::vector<std::uint32_t> alice;
  std::unique_ptr<serve::GarblerService> service;
  std::vector<std::unique_ptr<core::WarmState>> client_warm;
  serve::ClientOptions copts;

  ~Deployment() {
    if (service) service->stop();
  }
};

/// One served run on client `c`; "" on success, else the failure.
std::string served_run(Deployment& d, std::size_t c, const std::vector<std::uint32_t>& bob,
                       serve::ClientResult* out) {
  try {
    serve::ClientResult res = serve::run_client("127.0.0.1", d.service->port(), d.m->cpu().nl,
                                                d.copts, d.m->bob_input_bits(bob), {}, nullptr,
                                                d.client_warm[c].get());
    const std::string err =
        check_outputs(*d.m, d.alice, bob, d.m->decode_output_bits(res.outputs), res.cycles);
    if (!err.empty()) return err;
    *out = std::move(res);
    return "";
  } catch (const serve::ServiceRejected& ex) {
    return std::string("rejected: ") + ex.what();
  } catch (const std::exception& ex) {
    return std::string("exception: ") + ex.what();
  }
}

std::unique_ptr<Deployment> deploy(const WorkloadDef& w, InputGen& gen) {
  auto d = std::make_unique<Deployment>();
  const arm2gc::programs::Program prog = w.make();
  d->m = std::make_unique<Arm2Gc>(prog.cfg, prog.words);
  d->alice = gen.words(w.alice_words);

  const core::ExecOptions exec = bench_exec();
  serve::ProgramSpec spec;
  spec.name = kProgramName;
  spec.nl = &d->m->cpu().nl;
  spec.opts = d->m->party_options(core::Role::Garbler, 1u << 20,
                                  arm2gc::gc::Scheme::HalfGates, exec);
  spec.alice_bits = d->m->alice_input_bits(d->alice);
  serve::ServiceOptions so;
  so.shards = 1;
  so.exec_threads = exec.threads;
  d->service = std::make_unique<serve::GarblerService>(std::vector<serve::ProgramSpec>{spec}, so);
  d->service->start();

  d->copts.program = kProgramName;
  d->copts.ot_backend = exec.ot_backend;
  d->copts.ot_pool = exec.ot_pool;
  d->copts.halt_wire = d->m->cpu().halt_wire;
  d->copts.threads = exec.threads;
  core::WarmState::Options wo;
  wo.ot_backend = exec.ot_backend;
  wo.ot_pool = exec.ot_pool;
  for (std::size_t c = 0; c < kClients; ++c) {
    d->client_warm.push_back(std::make_unique<core::WarmState>(core::Role::Evaluator, wo));
  }

  // Warm-up rounds: both clients at once, so the service pools a warm
  // garbler WarmState for each connection that can be in flight.
  for (std::size_t round = 0; round < w.warmup_runs; ++round) {
    std::vector<std::vector<std::uint32_t>> bobs;
    for (std::size_t c = 0; c < kClients; ++c) bobs.push_back(gen.words(w.bob_words));
    std::vector<std::string> errs(kClients);
    {
      std::vector<std::jthread> threads;  // joined on scope exit, also on a throw
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          serve::ClientResult res;
          errs[c] = served_run(*d, c, bobs[c], &res);
        });
      }
    }
    for (const std::string& e : errs) {
      if (!e.empty()) throw std::runtime_error("served warm-up run: " + e);
    }
  }
  return d;
}

/// Completed runs of the load phase.
struct LoadResult {
  std::vector<double> run_ms;      ///< due -> decoded outputs
  std::vector<double> queue_ms;    ///< due -> pickup by a client
  std::vector<double> service_ms;  ///< pickup -> decoded outputs
  double lag_ms_max = 0;           ///< generator lateness (timer overshoot)
  std::uint64_t backlog = 0;       ///< arrivals never picked up
  double elapsed_s = 0;            ///< phase start -> last completion
  StatTotals totals;
};

/// Open loop: kOfferedRate x `seconds` arrivals (or exactly `fixed_runs`),
/// served by kClients client workers, each run timed from its due time.
/// Arrival i falls at a seeded uniform-random point of the i-th 1/rate slot:
/// the offered load is fixed and arrivals still bunch (gaps range over 0 to
/// two slots), but not as heavily as Poisson arrivals, whose clustering made
/// the tail depend more on the seed than on the service.
LoadResult load_phase(Deployment& d, const WorkloadDef& w, InputGen& gen, double seconds,
                      std::size_t fixed_runs, Report& r) {
  std::size_t n = fixed_runs;
  if (n == 0) n = static_cast<std::size_t>(std::max(1L, std::lround(kOfferedRate * seconds)));
  const double span_s = static_cast<double>(n) / kOfferedRate;
  std::uniform_real_distribution<double> in_slot(0.0, 1.0);
  std::vector<double> due_s(n);
  for (std::size_t i = 0; i < n; ++i) {
    due_s[i] = (static_cast<double>(i) + in_slot(gen.rng())) / kOfferedRate;
  }
  std::vector<std::vector<std::uint32_t>> bobs;
  for (std::size_t i = 0; i < n; ++i) bobs.push_back(gen.words(w.bob_words));
  r.attempted += due_s.size();

  LoadResult lr;
  std::mutex mu;  // guards lr and r from the worker threads
  std::size_t next = 0;  // guarded by mu
  const Clock::time_point start = Clock::now();
  // A saturated service would grow the queue without bound; arrivals not
  // picked up by this deadline are counted as backlog (and failed).
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(2 * span_s + 5));
  Clock::time_point last_done = start;

  auto worker = [&](std::size_t c) {
    for (;;) {
      std::size_t i = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= due_s.size() || Clock::now() > deadline) return;
        i = next++;
      }
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due_s[i]));
      double lag = 0;
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        lag = std::chrono::duration<double, std::milli>(Clock::now() - due).count();
      }
      const Clock::time_point pickup = Clock::now();
      serve::ClientResult res;
      const std::string err = served_run(d, c, bobs[i], &res);
      const Clock::time_point done = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      lr.lag_ms_max = std::max(lr.lag_ms_max, lag);
      if (!err.empty()) {
        r.fail(err);
        continue;
      }
      lr.run_ms.push_back(std::chrono::duration<double, std::milli>(done - due).count());
      lr.queue_ms.push_back(std::chrono::duration<double, std::milli>(pickup - due).count());
      lr.service_ms.push_back(std::chrono::duration<double, std::milli>(done - pickup).count());
      lr.totals.add(res.stats, res.comm_total());
      last_done = std::max(last_done, done);
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on scope exit, also on a throw
    for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(worker, c);
  }

  lr.backlog = due_s.size() - next;
  for (std::uint64_t i = 0; i < lr.backlog; ++i) r.fail("arrival not served before the deadline");
  lr.elapsed_s = std::chrono::duration<double>(last_done - start).count();
  return lr;
}

/// Waits (bounded) until the service has accounted every run it served:
/// it counts a run at wrap-up, which can trail the client's return.
serve::ServiceStats settled_stats(const serve::GarblerService& s, std::uint64_t want) {
  const Clock::time_point until = Clock::now() + std::chrono::seconds(5);
  serve::ServiceStats st = s.stats();
  while (st.runs_ok + st.runs_failed < want && Clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = s.stats();
  }
  return st;
}

/// The serve.* and load.* layer metrics of a load phase between two
/// readings of the service's counters.
void set_serve_layers(const serve::ServiceStats& st0, const serve::ServiceStats& st,
                      const LoadResult& lr, Report& r) {
  const std::uint64_t warm_hits = st.warm_hits - st0.warm_hits;
  const std::uint64_t warm_total = warm_hits + (st.warm_misses - st0.warm_misses);
  r.set("serve.warm_hit_ratio",
        warm_total == 0 ? 0.0 : static_cast<double>(warm_hits) / static_cast<double>(warm_total),
        "ratio");
  r.set("serve.hello_rejected", static_cast<double>(st.hello_rejected - st0.hello_rejected), "count");
  r.set("serve.runs_failed", static_cast<double>(st.runs_failed - st0.runs_failed), "count");
  r.set("serve.send_queue_high_water_kb", static_cast<double>(st.send_queue_high_water) / 1024.0,
        "KiB");
  r.set("load.queue_ms_p50", quantile(lr.queue_ms, 0.5), "ms");
  r.set("load.service_ms_p50", quantile(lr.service_ms, 0.5), "ms");
  r.set("load.lag_ms_max", lr.lag_ms_max, "ms");
  r.set("load.backlog_end", static_cast<double>(lr.backlog), "count");
}

}  // namespace

void served_layers(const WorkloadDef& w, InputGen& gen, double seconds, std::size_t fixed_runs,
                   Report& r) {
  const std::unique_ptr<Deployment> d = deploy(w, gen);
  const serve::ServiceStats st0 = d->service->stats();
  const LoadResult lr = load_phase(*d, w, gen, seconds, fixed_runs, r);
  const serve::ServiceStats st =
      settled_stats(*d->service, st0.runs_ok + st0.runs_failed + lr.run_ms.size());
  set_serve_layers(st0, st, lr, r);
}

void run_served(const WorkloadDef& w, const Options& o, Report& r) {
  InputGen gen(o.seed, w.name);
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  auto setup = [&] {
    d.reset();
    const Clock::time_point t0 = Clock::now();
    d = deploy(w, gen);
    setup_s.push_back(ms_since(t0) / 1e3);
  };
  setup();

  const serve::ServiceStats st0 = d->service->stats();
  std::uint64_t plan_ev0 = 0;
  std::uint64_t cone_ev0 = 0;
  for (const auto& ws : d->client_warm) {
    plan_ev0 += ws->plan_cache().evictions();
    cone_ev0 += ws->cone_memo().evictions();
  }
  // The traced run splits its time between the load phase (service and
  // load-generator layers) and the hook-timed replica.
  const double load_seconds = o.trace ? o.seconds / 2 : o.seconds;
  const LoadResult lr = load_phase(*d, w, gen, load_seconds, o.runs, r);
  const serve::ServiceStats st =
      settled_stats(*d->service, st0.runs_ok + st0.runs_failed + lr.run_ms.size());
  std::uint64_t plan_ev = 0;
  std::uint64_t cone_ev = 0;
  for (const auto& ws : d->client_warm) {
    plan_ev += ws->plan_cache().evictions();
    cone_ev += ws->cone_memo().evictions();
  }
  plan_ev -= plan_ev0;
  cone_ev -= cone_ev0;
  lr.totals.export_counters(r);
  r.counters["plan_cache_evictions"] = plan_ev;
  r.counters["cone_memo_evictions"] = cone_ev;
  r.counters["hello_rejected"] = st.hello_rejected - st0.hello_rejected;
  r.info["samples"] = static_cast<double>(lr.run_ms.size());
  r.info["offered_rate_per_s"] = kOfferedRate;
  r.info["load.backlog_end"] = static_cast<double>(lr.backlog);
  r.info["load.lag_ms_max"] = lr.lag_ms_max;

  if (!o.trace) {
    // Peak memory of one deployment plus the load phase; the further
    // setups `setup_s` takes its median over come after, each replacing the last.
    const double rss_mb = peak_rss_mb();
    while (setup_s.size() < kSetupReps) setup();
    r.set("run_ms_p50", quantile(lr.run_ms, 0.5), "ms");
    r.set("run_ms_p90", quantile(lr.run_ms, 0.9), "ms");
    r.set("runs_per_s",
          lr.elapsed_s > 0 ? static_cast<double>(lr.run_ms.size()) / lr.elapsed_s : 0.0, "1/s");
    r.set("setup_s", quantile(setup_s, 0.5), "s");
    r.set("peak_rss_mb", rss_mb, "MiB");
    r.set("comm_kb_per_run", lr.totals.per_run(lr.totals.comm_total()) / 1024.0, "KiB");
    r.set("garbled_non_xor_per_run", lr.totals.per_run(lr.totals.garbled_non_xor), "count");
    return;
  }

  // Per-layer pass: the replica and planner replay first (they set the
  // party.*/plan.* split), then the served run's own layers override the
  // RunStats-derived ones with what the networked clients saw.
  r.set("arm.build_ms", median_build_ms(w), "ms");
  (void)traced_pass(w, *d->m, gen, o.seconds / 2, o.runs, r);
  lr.totals.export_layers(r);
  const double n = static_cast<double>(std::max<std::size_t>(lr.run_ms.size(), 1));
  std::size_t entries = 0;
  for (const auto& ws : d->client_warm) entries += ws->plan_cache().entries();
  r.set("plan.cache_entries", static_cast<double>(entries), "count");
  r.set("plan.cache_evictions_per_run", static_cast<double>(plan_ev) / n, "count");
  r.set("plan.cone_evictions_per_run", static_cast<double>(cone_ev) / n, "count");
  set_serve_layers(st0, st, lr, r);
}

}  // namespace perfbench
