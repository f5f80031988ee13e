#include "arm/arm2gc.h"

#include <stdexcept>
#include <string>

namespace arm2gc::arm {

Arm2Gc::Arm2Gc(MemoryConfig cfg, std::vector<std::uint32_t> program)
    : cfg_(cfg), program_(std::move(program)), cpu_(build_cpu(cfg_, program_)) {}

netlist::BitVec Arm2Gc::words_to_bits(std::span<const std::uint32_t> words,
                                      std::size_t mem_words, const char* who) const {
  if (words.size() > mem_words) {
    throw std::invalid_argument(std::string("Arm2Gc: ") + who + " input exceeds memory");
  }
  netlist::BitVec bits(32 * mem_words, false);
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (int b = 0; b < 32; ++b) bits[32 * w + static_cast<std::size_t>(b)] = ((words[w] >> b) & 1u) != 0;
  }
  return bits;
}

namespace {
Arm2GcResult decode_run(const core::RunResult& r, std::size_t out_words) {
  Arm2GcResult res;
  res.cycles = r.final_cycle + 1;
  res.stats = r.stats;
  res.outputs.assign(out_words, 0);
  // Output port 0 is the halt flag; out memory bits follow word-major.
  for (std::size_t w = 0; w < out_words; ++w) {
    for (int b = 0; b < 32; ++b) {
      if (r.final_outputs.at(1 + 32 * w + static_cast<std::size_t>(b))) {
        res.outputs[w] |= 1u << b;
      }
    }
  }
  return res;
}
}  // namespace

netlist::BitVec Arm2Gc::alice_input_bits(std::span<const std::uint32_t> words) const {
  return words_to_bits(words, cfg_.alice_words, "Alice");
}

netlist::BitVec Arm2Gc::bob_input_bits(std::span<const std::uint32_t> words) const {
  return words_to_bits(words, cfg_.bob_words, "Bob");
}

std::vector<std::uint32_t> Arm2Gc::decode_output_bits(
    const netlist::BitVec& final_outputs) const {
  std::vector<std::uint32_t> out(cfg_.out_words, 0);
  for (std::size_t w = 0; w < cfg_.out_words; ++w) {
    for (int b = 0; b < 32; ++b) {
      if (final_outputs.at(1 + 32 * w + static_cast<std::size_t>(b))) {
        out[w] |= 1u << b;
      }
    }
  }
  return out;
}

Arm2GcResult Arm2Gc::run(std::span<const std::uint32_t> alice,
                         std::span<const std::uint32_t> bob, std::uint64_t max_cycles,
                         gc::Scheme /*scheme*/, const core::ExecOptions& exec) const {
  core::RunOptions opts;
  opts.mode = core::Mode::SkipGate;
  opts.halt_wire = cpu_.halt_wire;
  opts.max_cycles = max_cycles;
  opts.exec = exec;
  core::SkipGateDriver driver(cpu_.nl, opts);
  const core::RunResult r = driver.run(words_to_bits(alice, cfg_.alice_words, "Alice"),
                                       words_to_bits(bob, cfg_.bob_words, "Bob"));
  return decode_run(r, cfg_.out_words);
}

Arm2GcResult Arm2Gc::run_conventional(std::span<const std::uint32_t> alice,
                                      std::span<const std::uint32_t> bob, std::uint64_t cycles,
                                      const core::ExecOptions& exec) const {
  core::RunOptions opts;
  opts.mode = core::Mode::Conventional;
  opts.fixed_cycles = cycles;
  opts.exec = exec;
  core::SkipGateDriver driver(cpu_.nl, opts);
  const core::RunResult r = driver.run(words_to_bits(alice, cfg_.alice_words, "Alice"),
                                       words_to_bits(bob, cfg_.bob_words, "Bob"));
  return decode_run(r, cfg_.out_words);
}

std::uint64_t Arm2Gc::conventional_non_xor(std::uint64_t cycles) const {
  return cycles * cpu_.nl.count_non_free();
}

namespace {
/// WarmState options for a session role: budgets and backend from the exec
/// tuning; the OT seed is the same protocol seed every run() hands the
/// driver (RunOptions default; Arm2Gc::run never overrides it), so the warm
/// extension streams continue exactly where the last run stopped.
core::WarmState::Options session_warm_options(const core::ExecOptions& exec) {
  core::WarmState::Options w;
  w.plan_cache_budget_bytes = exec.plan_cache_budget_bytes;
  w.ot_backend = exec.ot_backend;
  w.ot_pool = exec.ot_pool;
  w.seed = core::RunOptions{}.seed;
  return w;
}
}  // namespace

Arm2Gc::Session::Session(const Arm2Gc& machine, core::ExecOptions exec)
    : machine_(&machine),
      exec_(exec),
      garbler_warm_(core::Role::Garbler, session_warm_options(exec)),
      evaluator_warm_(core::Role::Evaluator, session_warm_options(exec)) {
  exec_.plan_cache = true;  // warm caches are the point of a session
  if (exec_.garbler_warm == nullptr) exec_.garbler_warm = &garbler_warm_;
  if (exec_.evaluator_warm == nullptr) exec_.evaluator_warm = &evaluator_warm_;
}

Arm2GcResult Arm2Gc::Session::run(std::span<const std::uint32_t> alice,
                                  std::span<const std::uint32_t> bob,
                                  std::uint64_t max_cycles) {
  return machine_->run(alice, bob, max_cycles, /*scheme=*/{}, exec_);
}

core::PartyOptions Arm2Gc::party_options(core::Role role, std::uint64_t max_cycles,
                                         gc::Scheme /*scheme*/,
                                         const core::ExecOptions& exec) const {
  core::RunOptions opts;
  opts.mode = core::Mode::SkipGate;
  opts.halt_wire = cpu_.halt_wire;
  opts.max_cycles = max_cycles;
  opts.exec = exec;
  return core::party_options(role, opts);
}

Arm2GcResult Arm2Gc::run_garbler(std::span<const std::uint32_t> alice, gc::Transport& tx,
                                 const core::PartyOptions& opts, core::WarmState* warm) const {
  core::GarblerEndpoint endpoint(cpu_.nl, opts, tx, warm);
  return decode_run(endpoint.run(words_to_bits(alice, cfg_.alice_words, "Alice")),
                    cfg_.out_words);
}

Arm2GcResult Arm2Gc::run_evaluator(std::span<const std::uint32_t> bob, gc::Transport& tx,
                                   const core::PartyOptions& opts,
                                   core::WarmState* warm) const {
  core::EvaluatorEndpoint endpoint(cpu_.nl, opts, tx, warm);
  const core::RunResult r = endpoint.run(words_to_bits(bob, cfg_.bob_words, "Bob"));
  Arm2GcResult res;
  res.cycles = r.final_cycle + 1;
  res.stats = r.stats;  // outputs stay empty: the evaluator never learns them
  return res;
}

Arm2GcResult Arm2Gc::run_reference(std::span<const std::uint32_t> alice,
                                   std::span<const std::uint32_t> bob,
                                   std::uint64_t max_cycles) const {
  ArmSim sim(cfg_, program_);
  sim.reset(alice, bob);
  Arm2GcResult res;
  res.cycles = sim.run(max_cycles);
  res.outputs = sim.out_mem();
  return res;
}

}  // namespace arm2gc::arm
