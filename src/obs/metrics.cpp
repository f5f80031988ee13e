#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace arm2gc::obs {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if ARM2GC_OBS

std::size_t shard_index() noexcept {
  // Dense per-thread ordinal: threads that record metrics get consecutive
  // ids, so N recording threads (e.g. serve shards) occupy N distinct cells
  // (no hash collisions at small N, unlike hashing
  // std::this_thread::get_id()).
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal % kMetricShards;
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += s.bucket[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : snap.buckets) snap.count += c;
  return snap;
}

namespace {

// Index of the bucket holding the nearest-rank p-th value, plus the rank's
// position within that bucket (for interpolation). Returns false when empty.
bool locate_rank(const Histogram::Snapshot& snap, double p, std::size_t& bucket,
                 std::uint64_t& rank_in_bucket) {
  if (snap.count == 0) return false;
  p = std::clamp(p, 0.0, 1.0);
  // Nearest-rank: the ceil(p * count)-th smallest value (1-based), at least 1.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p * static_cast<double>(snap.count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    if (seen + snap.buckets[b] >= rank) {
      bucket = b;
      rank_in_bucket = rank - seen;
      return true;
    }
    seen += snap.buckets[b];
  }
  return false;  // unreachable when counts are consistent
}

}  // namespace

double Histogram::percentile(double p) const noexcept {
  const Snapshot snap = snapshot();
  std::size_t b = 0;
  std::uint64_t rank_in_bucket = 0;
  if (!locate_rank(snap, p, b, rank_in_bucket)) return 0.0;
  const double lo = static_cast<double>(bucket_lo(b));
  // Interpolate across the bucket by the rank's position inside it; the
  // overflow bucket has no finite width, so report its lower edge.
  if (b + 1 >= kBuckets) return lo;
  const double width = static_cast<double>(bucket_hi(b)) - lo;
  const double frac = static_cast<double>(rank_in_bucket) /
                      static_cast<double>(snap.buckets[b]);
  return lo + width * frac;
}

Histogram::Bounds Histogram::percentile_bounds(double p) const noexcept {
  const Snapshot snap = snapshot();
  std::size_t b = 0;
  std::uint64_t rank_in_bucket = 0;
  if (!locate_rank(snap, p, b, rank_in_bucket)) return {};
  // Inclusive value range of the landing bucket: [lo, hi - 1] for finite
  // buckets, [lo, max] for the overflow bucket.
  Bounds out;
  out.lo = bucket_lo(b);
  out.hi = b + 1 >= kBuckets ? bucket_hi(b) : bucket_hi(b) - 1;
  return out;
}

Registry& Registry::instance() {
  // Leaked on purpose: instruments must outlive static destructors that may
  // still record (e.g. WarmState teardown).
  static Registry* r = new Registry();
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::string Registry::prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 7);
  if (name.substr(0, 7) != "arm2gc_") out = "arm2gc_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

void Registry::render_prometheus(std::string& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " counter\n";
    out += pn + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string pn = prometheus_name(name);
    out += "# TYPE " + pn + " gauge\n";
    out += pn + " " + std::to_string(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string pn = prometheus_name(name);
    const Histogram::Snapshot snap = h->snapshot();
    out += "# TYPE " + pn + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      cum += snap.buckets[b];
      // Cumulative count of values <= the bucket's inclusive upper edge;
      // skip interior empty-prefix buckets to keep pages small, but always
      // emit a bucket once it carries cumulative mass.
      if (cum == 0 && b + 1 < Histogram::kBuckets) continue;
      if (b + 1 >= Histogram::kBuckets) break;  // folded into +Inf below
      out += pn + "_bucket{le=\"" +
             std::to_string(Histogram::bucket_hi(b) - 1) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += pn + "_bucket{le=\"+Inf\"} " + std::to_string(snap.count) + "\n";
    out += pn + "_sum " + std::to_string(snap.sum) + "\n";
    out += pn + "_count " + std::to_string(snap.count) + "\n";
  }
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : counters_) kv.second->reset();
  for (auto& kv : gauges_) kv.second->reset();
  for (auto& kv : histograms_) kv.second->reset();
}

#endif  // ARM2GC_OBS

}  // namespace arm2gc::obs
