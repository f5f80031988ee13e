// Shared plumbing of the layered benchmark: command-line options, workload
// definitions, seeded input generation, sample statistics and the metric
// record every workload fills in. Everything here sits outside the library
// and reaches it only through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "arm/arm2gc.h"
#include "core/skipgate.h"
#include "programs/programs.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// > 0: run exactly this many steady runs instead of a timed phase (the
  /// deterministic-counter check uses it so run counts match across calls).
  std::size_t runs = 0;
  std::string record_dir;  ///< where the full JSON record is written ("" = none)
};

/// One named workload: which program, how it is driven, and the load shape.
struct WorkloadDef {
  std::string name;
  enum class Kind { Warm, OneShot, Served } kind = Kind::Warm;
  arm2gc::programs::Program (*make)() = nullptr;
  std::size_t alice_words = 0;  ///< logical private input words per party
  std::size_t bob_words = 0;
  std::size_t warmup_runs = 2;  ///< per setup, fills caches and OT pools
  /// The traced pass also measures the served path's layers (serve.*,
  /// load.*) on this program, spending half its time on them.
  bool served_layers = false;
};

/// Setups per invocation: each builds everything from scratch and `setup_s`
/// reports their median; the last one's state carries into the steady phase.
constexpr std::size_t kSetupReps = 5;

/// Library settings shared by every workload: Precomp OT, threads = 1,
/// default plan-cache and cone-memo budgets.
[[nodiscard]] inline arm2gc::core::ExecOptions bench_exec() {
  arm2gc::core::ExecOptions exec;
  exec.ot_backend = arm2gc::gc::OtBackend::Precomp;
  exec.threads = 1;
  return exec;
}

/// Seeded private-input generator: the library only sees the words.
class InputGen {
 public:
  /// `stream` separates workloads (FNV-1a of the name) under one seed.
  InputGen(std::uint64_t seed, const std::string& stream) : rng_(seed * 0x9E3779B97F4A7C15ULL ^ fnv1a(stream)) {}
  [[nodiscard]] std::vector<std::uint32_t> words(std::size_t n) {
    std::vector<std::uint32_t> w(n);
    for (std::uint32_t& x : w) x = static_cast<std::uint32_t>(rng_());
    return w;
  }
  [[nodiscard]] std::mt19937_64& rng() { return rng_; }

 private:
  static std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
  }
  std::mt19937_64 rng_;
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// A result under construction: metrics by name with units, exact counters,
/// run accounting and notes for the record.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> counters;  ///< deterministic per-phase totals
  std::map<std::string, double> info;             ///< extra figures for the record
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Sums of the RunStats fields the layer metrics and the exact-counter check
/// read, accumulated over a phase's runs.
struct StatTotals {
  std::uint64_t runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t garbled_non_xor = 0;
  std::uint64_t plan_hits = 0, plan_misses = 0, cone_hits = 0, cone_misses = 0;
  std::uint64_t ot_choices = 0, ot_base_ots = 0, ot_online_bytes = 0;
  std::uint64_t ot_wall_ns = 0, ot_offline_wall_ns = 0;
  std::uint64_t table_b = 0, label_b = 0, ot_b = 0, output_b = 0;
  std::uint64_t high_water_blocks = 0;  ///< max over runs

  void add(const arm2gc::core::RunStats& s, const arm2gc::gc::CommStats& comm);
  [[nodiscard]] double per_run(std::uint64_t v) const {
    return runs == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(runs);
  }
  [[nodiscard]] std::uint64_t comm_total() const { return table_b + label_b + ot_b + output_b; }
  /// Exact counters (identical on every seed: the trajectory is public).
  void export_counters(Report& r) const;
  /// ot.*, transport.* and plan hit-ratio layer metrics.
  void export_layers(Report& r) const;
};

/// Median wall time (ms) of kSetupReps `Arm2Gc` constructions of `w`'s
/// program: the netlist build.
[[nodiscard]] double median_build_ms(const WorkloadDef& w);

/// Environment stamp recorded with every result.
struct EnvStamp {
  std::map<std::string, std::string> fields;
  bool valid = true;  ///< false for non-Release or sanitizer builds
};
[[nodiscard]] EnvStamp environment_stamp();
/// Peak resident set size of this process, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Workload drivers (inproc.cpp, served.cpp). Each fills `r` with either
/// the end-to-end metrics (untraced) or the per-layer metrics (traced).
void run_inproc(const WorkloadDef& w, const Options& o, Report& r);
void run_served(const WorkloadDef& w, const Options& o, Report& r);
/// Deploys `w`'s program behind a one-shard GarblerService, drives the
/// served workload's open-loop load for `seconds` (or `fixed_runs` arrivals),
/// counting its runs in `r`, and adds the serve.* and load.* layer metrics.
void served_layers(const WorkloadDef& w, InputGen& gen, double seconds, std::size_t fixed_runs,
                   Report& r);

}  // namespace perfbench
