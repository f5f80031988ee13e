// perfbench: the layered performance benchmark of the garbled ARM processor.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--runs <n>] [--record-dir <dir>]
//
// Untraced (--trace 0) runs report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer split from the hook-timed replica and the
// planner replay. Human-readable lines come first; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
// The full record (environment stamp, exact counters, failures) goes to
// <record-dir>/<workload>-seed<n>-trace<t>.json when --record-dir is given.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

const std::vector<WorkloadDef>& workloads() {
  using K = WorkloadDef::Kind;
  static const std::vector<WorkloadDef> defs = {
      {"hamming160-warm", K::Warm, [] { return arm2gc::programs::hamming(5); }, 5, 5, 2, true},
      {"matmult3-warm", K::Warm, [] { return arm2gc::programs::matmult(3); }, 9, 9, 2},
      {"hamming160-oneshot", K::OneShot, [] { return arm2gc::programs::hamming(5); }, 5, 5, 1},
      {"hamming160-served", K::Served, [] { return arm2gc::programs::hamming(5); }, 5, 5, 2},
  };
  return defs;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + f);
    const std::string v = argv[++i];
    if (f == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (f == "--seed") {
      o.seed = std::stoull(v);
    } else if (f == "--seconds") {
      o.seconds = std::stod(v);
    } else if (f == "--trace") {
      o.trace = std::stoi(v) != 0;
    } else if (f == "--runs") {
      o.runs = std::stoull(v);
    } else if (f == "--record-dir") {
      o.record_dir = v;
    } else {
      throw std::invalid_argument("unknown option " + f);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

/// Shortest round-trip decimal form of a finite double.
std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string metrics_json(const Report& r) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    s += (first ? "" : ", ") + quoted(name) + ": {\"value\": " + num(m.value) +
         ", \"unit\": " + quoted(m.unit) + "}";
    first = false;
  }
  return s + "}";
}

void write_record(const Options& o, const EnvStamp& env, const Report& r, bool correct) {
  if (o.record_dir.empty()) return;
  std::filesystem::create_directories(o.record_dir);
  const std::string path = o.record_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                           "-trace" + (o.trace ? "1" : "0") + ".json";
  std::ostringstream s;
  s << "{\n  \"workload\": " << quoted(o.workload) << ",\n  \"seed\": " << o.seed
    << ",\n  \"seconds\": " << num(o.seconds) << ",\n  \"trace\": " << (o.trace ? 1 : 0)
    << ",\n  \"valid\": " << (env.valid ? "true" : "false") << ",\n  \"environment\": {";
  bool first = true;
  for (const auto& [k, v] : env.fields) {
    s << (first ? "" : ", ") << quoted(k) << ": " << quoted(v);
    first = false;
  }
  s << "},\n  \"correct\": " << (correct ? "true" : "false") << ",\n  \"attempted\": "
    << r.attempted << ",\n  \"failed\": " << r.failed << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    s << (i ? ", " : "") << quoted(r.failures[i]);
  }
  s << "],\n  \"metrics\": " << metrics_json(r) << ",\n  \"counters\": {";
  first = true;
  for (const auto& [k, v] : r.counters) {
    s << (first ? "" : ", ") << quoted(k) << ": " << v;
    first = false;
  }
  s << "},\n  \"info\": {";
  first = true;
  for (const auto& [k, v] : r.info) {
    s << (first ? "" : ", ") << quoted(k) << ": " << num(v);
    first = false;
  }
  s << "}\n}\n";
  std::ofstream(path) << s.str();
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : workloads()) {
    if (d.name == o.workload) w = &d;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload " + o.workload);

  const EnvStamp env = environment_stamp();
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n", w->name.c_str(),
              static_cast<unsigned long long>(o.seed), num(o.seconds).c_str(), o.trace ? 1 : 0);
  std::printf("environment:");
  for (const auto& [k, v] : env.fields) std::printf(" %s=%s;", k.c_str(), v.c_str());
  std::printf("\n");
  if (!env.valid) {
    std::printf("WARNING: not a Release, sanitizer-free, NDEBUG build: result marked invalid\n");
  }

  Report r;
  if (w->kind == WorkloadDef::Kind::Served) {
    run_served(*w, o, r);
  } else {
    run_inproc(*w, o, r);
  }

  const bool correct = r.failed == 0 && r.attempted > 0;
  const double failed_ratio =
      r.attempted == 0 ? 1.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.info["failed_ratio"] = failed_ratio;
  // The end-to-end form of failed_ratio: never 0, so it has a relative bound.
  if (!o.trace) r.set("verified_ratio", 1.0 - failed_ratio, "ratio");
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, v] : r.info) std::printf("  (%s %.4f)\n", name.c_str(), v);
  std::printf("counters:");
  for (const auto& [k, v] : r.counters) std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(v));
  std::printf("\n");
  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  write_record(o, env, r, correct);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics_json(r).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& ex) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
