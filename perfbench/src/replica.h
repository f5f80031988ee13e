// The traced pass: a lock-step replica of core/skipgate.cpp's schedule with a
// timer around every endpoint hook, and a standalone core::Planner replay of
// the same public trajectory. Both are built from public API only, so they
// measure the layers from outside the library.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common.h"
#include "core/party.h"
#include "core/plan.h"

namespace perfbench {

/// Wall time (ms) spent in each group of endpoint hooks during one run.
struct PartyTimes {
  double start = 0;  ///< endpoint construction + start hooks
  double begin = 0;
  double garbler_work = 0;
  double evaluator_work = 0;
  double sample = 0;
  double latch = 0;
  double ot_refill = 0;
  double finish = 0;  ///< finish hooks + stat merge + output decode
  double wall = 0;    ///< whole replica run

  [[nodiscard]] double hooks() const {
    return start + begin + garbler_work + evaluator_work + sample + latch + ot_refill + finish;
  }
  PartyTimes& operator+=(const PartyTimes& o);
};

struct ReplicaRun {
  arm2gc::arm::Arm2GcResult result;
  PartyTimes t;
};

/// One secure execution driven hook by hook in the lock-step driver's order
/// (plan-following evaluator over an in-memory duplex). `exec` carries the
/// warm states, or none for a cold run like Arm2Gc::run.
[[nodiscard]] ReplicaRun run_replica(const arm2gc::arm::Arm2Gc& m,
                                     std::span<const std::uint32_t> alice,
                                     std::span<const std::uint32_t> bob,
                                     const arm2gc::core::ExecOptions& exec);

/// Wall time (ms) of each planner call group over one replayed run.
struct PlanTimes {
  double setup = 0;  ///< Planner construction + reset
  double begin = 0;
  double forward = 0;
  double finish = 0;
  double latch = 0;
  std::uint64_t cycles = 0;
  std::uint64_t emitted = 0;  ///< garbled tables the plans call for
  PlanTimes& operator+=(const PlanTimes& o);
};

/// A standalone planner walking one run's public trajectory. Warm replays
/// keep their own PlanCache/ConeMemo at the library's default budgets across
/// runs, like a Session's garbler; cold replays use transient caches, like
/// a one-shot run.
class PlannerReplay {
 public:
  PlannerReplay(const arm2gc::arm::Arm2Gc& m, bool warm);
  [[nodiscard]] PlanTimes run();

 private:
  const arm2gc::arm::Arm2Gc* m_;
  std::unique_ptr<arm2gc::core::PlanCache> cache_;
  std::unique_ptr<arm2gc::core::ConeMemo> memo_;
};

/// Runs the traced pass for `seconds` (or exactly `fixed_runs` runs): each
/// iteration executes the untraced reference (Session or Arm2Gc::run), the
/// hook-timed replica and the planner replay on the same fresh inputs,
/// checks outputs against the ISS and the replica against the reference
/// byte for byte, and adds the party.*, plan.*, garble/eval self-time and
/// tracing-validity metrics to `r`. Returns the reference runs' stats.
StatTotals traced_pass(const WorkloadDef& w, const arm2gc::arm::Arm2Gc& m, InputGen& gen,
                       double seconds, std::size_t fixed_runs, Report& r);

/// Compares one secure execution's outputs with the ISS; "" when equal.
[[nodiscard]] std::string check_outputs(const arm2gc::arm::Arm2Gc& m,
                                        std::span<const std::uint32_t> alice,
                                        std::span<const std::uint32_t> bob,
                                        const std::vector<std::uint32_t>& outputs,
                                        std::uint64_t cycles);

}  // namespace perfbench
