#include "serve/client.h"

#include <cstring>
#include <vector>

#include "gc/transport_socket.h"

namespace arm2gc::serve {

namespace {

core::PartyOptions to_party_options(const ClientOptions& c) {
  core::PartyOptions o;
  o.fixed_cycles = c.fixed_cycles;
  o.halt_wire = c.halt_wire;
  o.max_cycles = c.max_cycles;
  o.protocol_seed = c.protocol_seed;
  o.private_seed = c.private_seed;
  o.ot_backend = c.ot_backend;
  o.ot_pool = c.ot_pool;
  core::require_single_thread(c.threads, "ClientOptions::threads");
  return o;
}

}  // namespace

ClientResult run_client(const std::string& host, std::uint16_t port,
                        const netlist::Netlist& nl, const ClientOptions& copts,
                        const netlist::BitVec& bob_bits, const netlist::BitVec& pub_bits,
                        const core::StreamProvider* streams, core::WarmState* warm) {
  const core::PartyOptions popts = to_party_options(copts);  // validates before connecting
  std::unique_ptr<gc::SocketDuplex> sock =
      gc::SocketDuplex::connect(host, port, copts.connect_timeout_ms);
  sock->set_recv_timeout_ms(copts.recv_timeout_ms);

  // Hello: program + every protocol field the two endpoints must agree on.
  HelloRequest h;
  h.name_len = static_cast<std::uint32_t>(copts.program.size());
  h.ot_backend = static_cast<std::uint8_t>(copts.ot_backend);
  h.ot_pool = copts.ot_pool;
  h.fixed_cycles = copts.fixed_cycles.value_or(0);
  h.max_cycles = copts.max_cycles;
  copts.protocol_seed.to_bytes(h.protocol_seed);
  sock->send_control(&h, sizeof h);
  sock->send_control(copts.program.data(), copts.program.size());

  HelloReply reply{};
  sock->recv_control(&reply, sizeof reply);
  if (reply.magic != kHelloMagic) {
    throw std::runtime_error("serve: malformed hello reply (not a garbler service?)");
  }
  if (static_cast<HelloStatus>(reply.status) != HelloStatus::Ok) {
    throw ServiceRejected(static_cast<HelloStatus>(reply.status));
  }

  // Protocol proper: the evaluator endpoint's ordinary blocking run. The
  // service re-bases its pooled WarmState's OT half on every release (warm
  // extension streams are pairing-specific), so a repeat client must
  // re-base too: only the plan cache carries across served runs, never the
  // OT streams. A no-op when the state is already based.
  if (warm != nullptr) warm->reset_ot();
  core::EvaluatorEndpoint ev(nl, popts, sock->end(), warm);
  core::RunResult r = ev.run(bob_bits, pub_bits, streams);

  // Wrap-up: service first (summary + packed output bits), then our mirror.
  RunSummary s{};
  sock->recv_control(&s, sizeof s);
  if (s.magic != kSummaryMagic) {
    throw std::runtime_error("serve: malformed service wrap-up (desynced stream?)");
  }
  netlist::BitVec outputs(s.out_bits, false);
  if (s.out_bits != 0) {
    std::vector<std::uint8_t> packed((s.out_bits + 7) / 8, 0);
    sock->recv_control(packed.data(), packed.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      outputs[i] = (packed[i / 8] >> (i % 8)) & 1u;
    }
  }

  const gc::CommStats own_sent = sock->sent();
  RunSummary mine;
  mine.cycles = r.stats.cycles;
  mine.final_cycle = r.final_cycle;
  mine.garbled_non_xor = r.stats.garbled_non_xor;
  r.stats.table_digest.to_bytes(mine.table_digest);
  mine.comm[0] = own_sent.garbled_table_bytes;
  mine.comm[1] = own_sent.input_label_bytes;
  mine.comm[2] = own_sent.ot_bytes;
  mine.comm[3] = own_sent.output_bytes;
  mine.out_bits = 0;
  sock->send_control(&mine, sizeof mine);

  // The cross-check: the garbler digested the tables it sent, we digested
  // the tables we received — equality certifies content end to end.
  if (s.cycles != r.stats.cycles || s.garbled_non_xor != r.stats.garbled_non_xor) {
    throw std::runtime_error("serve: parties disagree on the protocol shape");
  }
  if (!(crypto::Block::from_bytes(s.table_digest) == r.stats.table_digest)) {
    throw std::runtime_error("serve: garbled-table digest mismatch across parties");
  }

  ClientResult out;
  out.outputs = std::move(outputs);
  out.cycles = s.cycles;
  out.final_cycle = s.final_cycle;
  out.garbled_non_xor = s.garbled_non_xor;
  out.table_digest = r.stats.table_digest;
  out.service_sent.garbled_table_bytes = s.comm[0];
  out.service_sent.input_label_bytes = s.comm[1];
  out.service_sent.ot_bytes = s.comm[2];
  out.service_sent.output_bytes = s.comm[3];
  out.client_sent = own_sent;
  out.stats = r.stats;
  return out;
}

}  // namespace arm2gc::serve
