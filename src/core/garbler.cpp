#include "core/garbler.h"

#include <stdexcept>
#include <string>

namespace arm2gc::core {

namespace {
using crypto::Block;
using netlist::Dff;
using netlist::Gate;
using netlist::Owner;
using netlist::WireId;

constexpr Block kZeroBlock{};
Block maybe(Block b, bool take) { return take ? b : kZeroBlock; }
}  // namespace

GarblerSession::GarblerSession(const netlist::Netlist& nl, Mode mode, Block seed,
                               gc::Transport& tx, gc::OtBackend ot_backend,
                               gc::IknpSenderState* warm_ot,
                               gc::RandomOtPoolSender* warm_ot_pool, std::size_t ot_pool)
    : nl_(nl),
      mode_(mode),
      garbler_(seed),
      tx_(&tx),
      ot_(gc::make_ot_sender(ot_backend, tx, seed, warm_ot, warm_ot_pool, ot_pool)) {
  la_.resize(nl_.num_wires());
  const_la_[0] = const_la_[1] = Block{};
}

/// Binds one secret source bit owned by `owner`: creates the label pair and
/// transfers Bob's label (directly for bits Alice knows, queued into the OT
/// batch for Bob's own bits — the value `v` is ignored then; the receiver
/// chooses at the phase's flush).
void GarblerSession::bind_secret(Owner owner, bool v, Block& la) {
  la = garbler_.fresh_label();
  if (owner == Owner::Bob) {
    ot_->enqueue(la, la ^ garbler_.R());
  } else {
    tx_->send(la ^ maybe(garbler_.R(), v), gc::Traffic::InputLabel);
  }
}

bool GarblerSession::known_bit(Owner owner, std::uint32_t idx, const netlist::BitVec& alice,
                               const netlist::BitVec& pub, const char* what) const {
  if (owner == Owner::Bob) return false;  // transferred by OT; value unused
  const netlist::BitVec& v = owner == Owner::Alice ? alice : pub;
  if (idx >= v.size()) {
    throw std::out_of_range(std::string("skipgate: missing ") + what + " bit " +
                            std::to_string(idx));
  }
  return v[idx];
}

void GarblerSession::reset(const netlist::BitVec& alice_bits, const netlist::BitVec& pub_bits) {
  const bool skipgate = mode_ == Mode::SkipGate;

  // Conventional GC treats even constants as secret wires whose (known)
  // value selects the transferred label.
  if (!skipgate) {
    bind_secret(Owner::Public, false, const_la_[0]);
    bind_secret(Owner::Public, true, const_la_[1]);
  }

  fixed_la_.assign(nl_.inputs.size(), Block{});
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (in.streamed) continue;
    if (in.owner == Owner::Public && skipgate) continue;  // public wire, no label
    const bool v = known_bit(in.owner, in.bit_index, alice_bits, pub_bits, "fixed input");
    bind_secret(in.owner, v, fixed_la_[i]);
  }

  dff_la_.assign(nl_.dffs.size(), Block{});
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    switch (d.init) {
      case Dff::Init::Zero:
      case Dff::Init::One:
        if (!skipgate) bind_secret(Owner::Public, d.init == Dff::Init::One, dff_la_[i]);
        break;
      case Dff::Init::AliceBit: {
        const bool v =
            known_bit(Owner::Alice, d.init_index, alice_bits, pub_bits, "Alice dff init");
        bind_secret(Owner::Alice, v, dff_la_[i]);
        break;
      }
      case Dff::Init::BobBit:
        bind_secret(Owner::Bob, false, dff_la_[i]);
        break;
    }
  }
  ot_->flush();  // one batch for every Bob-owned fixed bit and dff init
}

void GarblerSession::begin_cycle(const netlist::BitVec& alice_stream,
                                 const netlist::BitVec& pub_stream) {
  const bool skipgate = mode_ == Mode::SkipGate;
  la_[netlist::kConst0] = const_la_[0];
  la_[netlist::kConst1] = const_la_[1];

  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    const WireId w = nl_.input_wire(i);
    if (!in.streamed) {
      la_[w] = fixed_la_[i];
      continue;
    }
    if (in.owner == Owner::Public && skipgate) continue;
    const bool v = known_bit(in.owner, in.bit_index, alice_stream, pub_stream, "streamed input");
    bind_secret(in.owner, v, la_[w]);
  }

  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    la_[nl_.dff_wire(i)] = dff_la_[i];
  }
  ot_->flush();  // this cycle's streamed Bob bits, as one batch
}

void GarblerSession::garble_cycle(const CyclePlan& plan) {
  const WireId first_gate = nl_.first_gate_wire();
  const Block r = garbler_.R();
  const bool conventional = mode_ == Mode::Conventional;

  // SkipGate plans carry an explicit work list of their live gates;
  // Conventional mode processes every gate.
  const std::size_t n = conventional ? plan.num_gates : plan.work_count;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = conventional ? k : plan.work[k];
    const WireId w = first_gate + static_cast<WireId>(i);
    const Gate g = nl_.gates[i];
    switch (plan.action(i)) {
      case PlanAct::Public:
        break;
      case PlanAct::PassA:
        la_[w] = la_[g.a] ^ maybe(r, plan.wire_flip(w) != plan.wire_flip(g.a));
        break;
      case PlanAct::PassB:
        la_[w] = la_[g.b] ^ maybe(r, plan.wire_flip(w) != plan.wire_flip(g.b));
        break;
      case PlanAct::PassC0:
        la_[w] = la_[netlist::kConst0];
        break;
      case PlanAct::PassC1:
        la_[w] = la_[netlist::kConst1];
        break;
      case PlanAct::PassSrc: {
        const WireId src = plan.pass_src[i];
        la_[w] = la_[src] ^ maybe(r, plan.wire_flip(w) != plan.wire_flip(src));
        break;
      }
      case PlanAct::FreeXor:
        la_[w] = la_[g.a] ^ la_[g.b] ^
                 maybe(r, (plan.wire_flip(w) != plan.wire_flip(g.a)) != plan.wire_flip(g.b));
        break;
      case PlanAct::Garble: {
        if (!plan.emit[i]) break;  // dead garbled gate: never built nor sent
        gc::GarbledTable table;
        la_[w] = garbler_.garble(la_[g.a], la_[g.b], netlist::tt_and_core(g.tt), table);
        tx_->send(table.rows.data(), table.rows.size(), gc::Traffic::GarbledTable);
        for (const Block& row : table.rows) table_digest_ = table_digest_.gf_double() ^ row;
        break;
      }
    }
  }
}

netlist::BitVec GarblerSession::decode_outputs(const CyclePlan& plan) {
  netlist::BitVec out;
  out.reserve(nl_.outputs.size());
  const Block r = garbler_.R();
  for (const netlist::OutputPort& o : nl_.outputs) {
    bool bit;
    if (plan.wire_public(o.wire)) {
      bit = plan.wire_value(o.wire);
    } else {
      // Bob sends his output label; Alice decodes it against her pair.
      const Block xb = tx_->recv();
      if (xb == la_[o.wire]) {
        bit = false;
      } else if (xb == (la_[o.wire] ^ r)) {
        bit = true;
      } else {
        throw std::runtime_error("skipgate: output label does not decode");
      }
    }
    out.push_back(bit != o.invert);
  }
  return out;
}

void GarblerSession::latch(const CyclePlan& plan) {
  const Block r = garbler_.R();
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    if (!plan.wire_public(d.d)) {
      dff_la_[i] = la_[d.d] ^ maybe(r, d.d_invert);
    }
  }
}

}  // namespace arm2gc::core
