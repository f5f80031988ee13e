#include "core/evaluator.h"

#include <stdexcept>
#include <string>

namespace arm2gc::core {

namespace {
using crypto::Block;
using netlist::Dff;
using netlist::Gate;
using netlist::Owner;
using netlist::WireId;
}  // namespace

EvaluatorSession::EvaluatorSession(const netlist::Netlist& nl, Mode mode, Block seed,
                                   gc::Transport& tx, gc::OtBackend ot_backend,
                                   gc::IknpReceiverState* warm_ot,
                                   gc::RandomOtPoolReceiver* warm_ot_pool, std::size_t ot_pool)
    : nl_(nl),
      mode_(mode),
      tx_(&tx),
      ot_(gc::make_ot_receiver(ot_backend, tx, seed, warm_ot, warm_ot_pool, ot_pool)) {
  lb_.resize(nl_.num_wires());
  lb_valid_.assign(nl_.num_wires(), 0);
  // Sized here as well as in ot_reset() so a reset() without its ot_reset()
  // half (a contract violation) reads zeros instead of writing out of
  // bounds.
  fixed_lb_.assign(nl_.inputs.size(), Block{});
  dff_lb_.assign(nl_.dffs.size(), Block{});
  dff_lb_valid_.assign(nl_.dffs.size(), 1);
  const_lb_[0] = const_lb_[1] = Block{};
}

bool EvaluatorSession::bob_bit(std::uint32_t idx, const netlist::BitVec& bob,
                               const char* what) const {
  if (idx >= bob.size()) {
    throw std::out_of_range(std::string("skipgate: missing ") + what + " bit " +
                            std::to_string(idx));
  }
  return bob[idx];
}

/// A non-streamed input binds a label unless SkipGate keeps it public.
bool EvaluatorSession::binds_fixed(const netlist::Input& in) const {
  if (in.streamed) return false;
  return !(in.owner == Owner::Public && mode_ == Mode::SkipGate);
}

/// A streamed input binds a label each cycle unless SkipGate keeps it public.
bool EvaluatorSession::binds_streamed(const netlist::Input& in) const {
  if (!in.streamed) return false;
  return !(in.owner == Owner::Public && mode_ == Mode::SkipGate);
}

// The two reset halves walk the same binding order as the garbler's reset:
// fixed inputs ascending, then flip-flops ascending. The OT queue sees
// exactly the Bob-owned bindings (same subsequence on both sides); the
// direct-label stream sees exactly the rest.
void EvaluatorSession::ot_reset(const netlist::BitVec& bob_bits) {
  fixed_lb_.assign(nl_.inputs.size(), Block{});
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (!binds_fixed(in)) continue;
    if (in.owner == Owner::Bob) {
      ot_->enqueue(bob_bit(in.bit_index, bob_bits, "fixed input"), &fixed_lb_[i]);
    }
  }

  dff_lb_.assign(nl_.dffs.size(), Block{});
  dff_lb_valid_.assign(nl_.dffs.size(), 1);
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    if (d.init == Dff::Init::BobBit) {
      ot_->enqueue(bob_bit(d.init_index, bob_bits, "Bob dff init"), &dff_lb_[i]);
    }
  }
  ot_->request();
}

void EvaluatorSession::reset() {
  const bool skipgate = mode_ == Mode::SkipGate;

  if (!skipgate) {
    const_lb_[0] = tx_->recv();
    const_lb_[1] = tx_->recv();
  }

  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (!binds_fixed(in)) continue;
    if (in.owner != Owner::Bob) fixed_lb_[i] = tx_->recv();
  }

  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    switch (d.init) {
      case Dff::Init::Zero:
      case Dff::Init::One:
        if (!skipgate) dff_lb_[i] = tx_->recv();
        break;
      case Dff::Init::AliceBit:
        dff_lb_[i] = tx_->recv();
        break;
      case Dff::Init::BobBit:
        break;  // queued in ot_reset; filled by finish() below
    }
  }
  ot_->finish();
}

void EvaluatorSession::ot_begin(const netlist::BitVec& bob_stream) {
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (!binds_streamed(in)) continue;
    if (in.owner == Owner::Bob) {
      ot_->enqueue(bob_bit(in.bit_index, bob_stream, "streamed input"),
                   &lb_[nl_.input_wire(i)]);
    }
  }
  ot_->request();
}

void EvaluatorSession::begin_cycle() {
  lb_[netlist::kConst0] = const_lb_[0];
  lb_[netlist::kConst1] = const_lb_[1];
  lb_valid_[netlist::kConst0] = 1;
  lb_valid_[netlist::kConst1] = 1;

  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    const WireId w = nl_.input_wire(i);
    if (!in.streamed) {
      lb_[w] = fixed_lb_[i];
      lb_valid_[w] = 1;
      continue;
    }
    if (!binds_streamed(in)) continue;  // public wire, no label
    if (in.owner == Owner::Bob) {
      lb_valid_[w] = 1;  // label lands at the batch finish below
      continue;
    }
    lb_[w] = tx_->recv();
    lb_valid_[w] = 1;
  }

  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const WireId w = nl_.dff_wire(i);
    lb_[w] = dff_lb_[i];
    lb_valid_[w] = dff_lb_valid_[i];
  }
  ot_->finish();
}

void EvaluatorSession::eval_cycle(const CyclePlan& plan) {
  const WireId first_gate = nl_.first_gate_wire();
  const bool conventional = mode_ == Mode::Conventional;
  gc::GarbledTable table;

  // SkipGate plans carry an explicit work list of their live gates;
  // Conventional mode processes every gate. Skipped gates keep stale labels,
  // which is sound: a live gate's inputs are always live-produced (or roots)
  // by the backward sweep's needed-closure, and every label-validity
  // consumer (outputs, latched flip-flops) checks publicness first.
  const std::size_t n = conventional ? plan.num_gates : plan.work_count;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = conventional ? k : plan.work[k];
    const WireId w = first_gate + static_cast<WireId>(i);
    const Gate g = nl_.gates[i];
    switch (plan.action(i)) {
      case PlanAct::Public:
        lb_valid_[w] = 0;
        break;
      case PlanAct::PassA:
        // Free-XOR: inverting a wire does not change the evaluator's label.
        lb_[w] = lb_[g.a];
        lb_valid_[w] = lb_valid_[g.a];
        break;
      case PlanAct::PassB:
        lb_[w] = lb_[g.b];
        lb_valid_[w] = lb_valid_[g.b];
        break;
      case PlanAct::PassC0:
        lb_[w] = lb_[netlist::kConst0];
        lb_valid_[w] = lb_valid_[netlist::kConst0];
        break;
      case PlanAct::PassC1:
        lb_[w] = lb_[netlist::kConst1];
        lb_valid_[w] = lb_valid_[netlist::kConst1];
        break;
      case PlanAct::PassSrc:
        lb_[w] = lb_[plan.pass_src[i]];
        lb_valid_[w] = lb_valid_[plan.pass_src[i]];
        break;
      case PlanAct::FreeXor:
        lb_[w] = lb_[g.a] ^ lb_[g.b];
        lb_valid_[w] = lb_valid_[g.a] & lb_valid_[g.b];
        break;
      case PlanAct::Garble: {
        if (!plan.emit[i]) {
          // Paper Alg. 5 line 18: a skipped gate's output is tracked as an
          // opaque secret; fingerprints already play that role, so no label.
          lb_valid_[w] = 0;
          break;
        }
        tx_->recv(table.rows.data(), table.rows.size());
        for (const Block& row : table.rows) table_digest_ = table_digest_.gf_double() ^ row;
        if (!lb_valid_[g.a] || !lb_valid_[g.b]) {
          throw std::logic_error("skipgate: evaluator missing label for a needed gate");
        }
        lb_[w] = eval_.eval(lb_[g.a], lb_[g.b], table);
        lb_valid_[w] = 1;
        break;
      }
    }
  }
}

void EvaluatorSession::send_outputs(const CyclePlan& plan) {
  for (const netlist::OutputPort& o : nl_.outputs) {
    if (plan.wire_public(o.wire)) continue;
    if (!lb_valid_[o.wire]) {
      throw std::logic_error("skipgate: evaluator has no label for an output wire");
    }
    tx_->send(lb_[o.wire], gc::Traffic::OutputDecode);
  }
}

void EvaluatorSession::latch(const CyclePlan& plan) {
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    if (!plan.wire_public(d.d)) {
      dff_lb_[i] = lb_[d.d];
      dff_lb_valid_[i] = lb_valid_[d.d];
    }
  }
}

}  // namespace arm2gc::core
