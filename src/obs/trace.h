// Observability: scoped trace spans with a chrome://tracing JSON exporter.
//
// Tracing answers the question metrics can't: *where inside one run* the
// wall-clock went — per schedule phase, per cone slice, per OT refill batch.
// Spans are recorded into per-thread buffers (own mutex each, so concurrent
// threads never serialize on a global lock) and exported as a Chrome Trace
// Event Format document ({"traceEvents":[{"ph":"X",...}]}) that loads
// directly in chrome://tracing or Perfetto.
//
// Determinism contract: tracing is OFF by default and never feeds back into
// the protocol — a traced run produces byte-identical tables, digests and
// comm counters (pinned in obs_test). The clock is injectable
// (Tracer::enable(clock)) so tests drive spans with a counter instead of
// real time and stay reproducible; passing nullptr uses the steady
// clock. Like metrics.h, everything compiles to empty inline stubs under
// -DARM2GC_OBS=OFF (the exporter still writes a valid empty trace so
// `--trace` never produces a broken file).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"  // ARM2GC_OBS gate + now_ns()

namespace arm2gc::obs {

/// Injectable time source for spans; must be monotone non-decreasing.
using ClockFn = std::uint64_t (*)();

#if ARM2GC_OBS

/// Process-wide trace collector. enable()/disable() flip one atomic;
/// call sites pay a single relaxed load when tracing is off. Buffers
/// accumulate until clear()/export; enabling twice keeps prior events.
class Tracer {
 public:
  [[nodiscard]] static Tracer& instance();

  /// Start recording. `clock` overrides the time source (nullptr = steady
  /// clock, nanoseconds).
  void enable(ClockFn clock = nullptr);
  void disable();
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Current trace timestamp from the active clock (valid whether or not
  /// recording is on — used by callers that measure a duration themselves).
  [[nodiscard]] std::uint64_t clock_ns() const noexcept;

  /// Record one complete span (ph:"X"). No-op when disabled. `name` and
  /// `cat` are copied; the calling thread's id becomes the trace tid.
  void record(std::string_view name, std::string_view cat, std::uint64_t ts_ns,
              std::uint64_t dur_ns);

  /// Drop all buffered events (thread registrations persist).
  void clear();

  /// Number of buffered events across all threads (cold path).
  [[nodiscard]] std::size_t event_count() const;

  /// Chrome Trace Event Format: {"traceEvents":[...]} with ph:"X" complete
  /// events, ts/dur in microseconds, tid = per-thread ordinal.
  [[nodiscard]] std::string export_json() const;

  /// export_json() to a file; returns false on I/O failure.
  bool export_to_file(const std::string& path) const;

 private:
  Tracer() = default;
  struct Buffer;
  [[nodiscard]] Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<ClockFn> clock_{nullptr};
  struct State;
  [[nodiscard]] State& state() const;
};

/// RAII complete-span: measures construction-to-destruction on the tracer's
/// clock. One relaxed load when tracing is off. `name`/`cat` must outlive
/// the span (string literals at every call site).
class Span {
 public:
  Span(const char* name, const char* cat) noexcept
      : name_(name), cat_(cat), start_(0), active_(false) {
    Tracer& t = Tracer::instance();
    if (t.enabled()) {
      active_ = true;
      start_ = t.clock_ns();
    }
  }
  ~Span() {
    if (active_) {
      Tracer& t = Tracer::instance();
      const std::uint64_t end = t.clock_ns();
      t.record(name_, cat_, start_, end - start_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t start_;
  bool active_;
};

#define A2G_SPAN(name, cat) \
  ::arm2gc::obs::Span A2G_OBS_CONCAT(a2g_span_, __LINE__)(name, cat)

#else  // !ARM2GC_OBS

class Tracer {
 public:
  [[nodiscard]] static Tracer& instance() {
    static Tracer t;
    return t;
  }
  void enable(ClockFn = nullptr) {}
  void disable() {}
  [[nodiscard]] bool enabled() const noexcept { return false; }
  [[nodiscard]] std::uint64_t clock_ns() const noexcept { return 0; }
  void record(std::string_view, std::string_view, std::uint64_t,
              std::uint64_t) {}
  void clear() {}
  [[nodiscard]] std::size_t event_count() const { return 0; }
  [[nodiscard]] std::string export_json() const {
    return "{\"traceEvents\":[]}\n";
  }
  bool export_to_file(const std::string& path) const;
};

class Span {
 public:
  Span(const char*, const char*) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#define A2G_SPAN(name, cat) \
  do {                      \
  } while (0)

#endif  // ARM2GC_OBS

}  // namespace arm2gc::obs
