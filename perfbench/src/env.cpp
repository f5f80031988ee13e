// Sample statistics, stat accumulation and the environment stamp.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "crypto/aes128.h"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median_build_ms(const WorkloadDef& w) {
  const arm2gc::programs::Program prog = w.make();
  std::vector<double> ms;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const arm2gc::arm::Arm2Gc m(prog.cfg, prog.words);
    ms.push_back(ms_since(t0));
  }
  return quantile(ms, 0.5);
}

void StatTotals::add(const arm2gc::core::RunStats& s, const arm2gc::gc::CommStats& comm) {
  ++runs;
  cycles += s.cycles;
  garbled_non_xor += s.garbled_non_xor;
  plan_hits += s.plan_cache_hits;
  plan_misses += s.plan_cache_misses;
  cone_hits += s.cone_hits;
  cone_misses += s.cone_misses;
  ot_choices += s.ot_choices;
  ot_base_ots += s.ot_base_ots;
  ot_online_bytes += s.ot_online_bytes;
  ot_wall_ns += s.ot_wall_ns;
  ot_offline_wall_ns += s.ot_offline_wall_ns;
  table_b += comm.garbled_table_bytes;
  label_b += comm.input_label_bytes;
  ot_b += comm.ot_bytes;
  output_b += comm.output_bytes;
  high_water_blocks = std::max<std::uint64_t>(high_water_blocks, s.transport_high_water_blocks);
}

void StatTotals::export_counters(Report& r) const {
  r.counters["runs"] = runs;
  r.counters["cycles"] = cycles;
  r.counters["garbled_non_xor"] = garbled_non_xor;
  r.counters["plan_cache_hits"] = plan_hits;
  r.counters["plan_cache_misses"] = plan_misses;
  r.counters["cone_hits"] = cone_hits;
  r.counters["cone_misses"] = cone_misses;
  r.counters["ot_choices"] = ot_choices;
  r.counters["ot_base_ots"] = ot_base_ots;
  r.counters["ot_online_bytes"] = ot_online_bytes;
  r.counters["comm_table_bytes"] = table_b;
  r.counters["comm_label_bytes"] = label_b;
  r.counters["comm_ot_bytes"] = ot_b;
  r.counters["comm_output_bytes"] = output_b;
}

void StatTotals::export_layers(Report& r) const {
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return a + b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(a + b);
  };
  r.set("plan.cache_hit_ratio", ratio(plan_hits, plan_misses), "ratio");
  r.set("plan.cone_hit_ratio", ratio(cone_hits, cone_misses), "ratio");
  r.set("ot.online_ms", per_run(ot_wall_ns) / 1e6, "ms");
  r.set("ot.offline_ms", per_run(ot_offline_wall_ns) / 1e6, "ms");
  r.set("ot.base_ots_per_run", per_run(ot_base_ots), "count");
  r.set("ot.online_kb", per_run(ot_online_bytes) / 1024.0, "KiB");
  r.set("transport.table_kb", per_run(table_b) / 1024.0, "KiB");
  r.set("transport.label_kb", per_run(label_b) / 1024.0, "KiB");
  r.set("transport.ot_kb", per_run(ot_b) / 1024.0, "KiB");
  r.set("transport.output_kb", per_run(output_b) / 1024.0, "KiB");
  r.set("transport.high_water_kb", static_cast<double>(high_water_blocks) * 16.0 / 1024.0, "KiB");
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

}  // namespace

EnvStamp environment_stamp() {
  EnvStamp e;
  e.fields["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  e.fields["hardware_concurrency"] = std::to_string(std::thread::hardware_concurrency());
  e.fields["cpu_model"] = cpu_model();
  e.fields["aes_backend"] =
      arm2gc::crypto::Aes128(arm2gc::crypto::Block{}).uses_aesni() ? "aesni" : "portable";
  const char* no_aesni = std::getenv("ARM2GC_DISABLE_AESNI");
  e.fields["ARM2GC_DISABLE_AESNI"] = no_aesni != nullptr ? no_aesni : "";
  e.fields["build_type"] = PERFBENCH_BUILD_TYPE;
  e.fields["compiler"] = PERFBENCH_COMPILER;
  e.fields["ARM2GC_OBS"] = std::to_string(ARM2GC_OBS);
  const std::string sanitize = PERFBENCH_SANITIZE;
  e.fields["sanitize"] = sanitize.empty() ? "OFF" : sanitize;
#ifdef NDEBUG
  e.fields["assertions"] = "off";
  const bool ndebug = true;
#else
  e.fields["assertions"] = "on";
  const bool ndebug = false;
#endif
  e.valid = e.fields["build_type"] == "Release" && e.fields["sanitize"] == "OFF" && ndebug;
  return e;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
