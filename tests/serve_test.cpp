// Garbler-service tests: the async multi-session service must be a perfect
// stand-in for both the in-process driver and the two-process socket
// deployment. Pinned here:
//   - differential: outputs, table digest, gate counts and per-class comm
//     bytes are byte-identical across {in-memory driver, two blocking
//     endpoints over a TCP socket, GarblerService + run_client} for every
//     OT backend — including with a tiny
//     send soft limit that forces the backpressure (park-on-write) path,
//     and under the portable poll() poller backend;
//   - connection churn: hundreds of sequential and dozens of concurrent
//     clients complete correctly with no fd leaks, bounded send-queue high
//     water, and warm-pool hit accounting (1 miss, N-1 hits sequentially);
//   - admission control: Busy at capacity (slot freed on disconnect),
//     UnknownProgram, OptionMismatch and BadMagic all reject at the door;
//   - fault tolerance: a client disconnecting mid-protocol (after hello,
//     with or without trailing garbage) never poisons the pooled WarmState —
//     the next client's run is byte-identical to an undisturbed one.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "arm/arm2gc.h"
#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/party.h"
#include "core/skipgate.h"
#include "gc/transport_socket.h"
#include "programs/programs.h"
#include "serve/client.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using a2gtest::to_bits;

netlist::Netlist adder_netlist() {
  builder::CircuitBuilder cb;
  const builder::Bus x = cb.input_bus(netlist::Owner::Alice, 8, 0);
  const builder::Bus y = cb.input_bus(netlist::Owner::Bob, 8, 0);
  cb.output_bus(builder::add(cb, x, y));
  return cb.take();
}

/// The registered contract for the adder: one cycle, default seeds.
core::PartyOptions adder_spec_opts() {
  core::PartyOptions o;
  o.fixed_cycles = 1;
  return o;
}

serve::ProgramSpec adder_spec(const netlist::Netlist& nl, const netlist::BitVec& alice) {
  serve::ProgramSpec spec;
  spec.name = "adder8";
  spec.nl = &nl;
  spec.opts = adder_spec_opts();
  spec.alice_bits = alice;
  return spec;
}

serve::ClientOptions adder_client_opts(gc::OtBackend ot, std::size_t pool) {
  serve::ClientOptions co;
  co.program = "adder8";
  co.fixed_cycles = 1;
  co.ot_backend = ot;
  co.ot_pool = pool;
  return co;
}

/// In-memory reference of the same protocol run.
core::RunResult adder_reference(const netlist::Netlist& nl, gc::OtBackend ot,
                                std::size_t pool, const netlist::BitVec& a,
                                const netlist::BitVec& b) {
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = ot;
  opts.exec.ot_pool = pool;
  return core::SkipGateDriver(nl, opts).run(a, b);
}

/// Two blocking endpoints over a TCP socket — the arm2gc_party two-process
/// deployment, minus the fork. Returns the garbler's result plus combined
/// per-class sent bytes.
struct TwoProcessRun {
  core::RunResult garbler;
  gc::CommStats comm;
};

TwoProcessRun two_process_run(const netlist::Netlist& nl, gc::OtBackend ot,
                              std::size_t pool, const netlist::BitVec& a,
                              const netlist::BitVec& b) {
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = ot;
  opts.exec.ot_pool = pool;

  gc::SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  TwoProcessRun out;
  gc::CommStats garbler_sent;
  std::exception_ptr gerr;
  std::thread garbler_thread([&] {
    try {
      auto sock = gc::SocketDuplex::connect("127.0.0.1", port);
      core::GarblerEndpoint endpoint(nl, core::party_options(core::Role::Garbler, opts),
                                     sock->end());
      out.garbler = endpoint.run(a);
      sock->flush();
      garbler_sent = sock->sent();
    } catch (...) {
      gerr = std::current_exception();
    }
  });
  auto sock = listener.accept();
  core::EvaluatorEndpoint endpoint(nl, core::party_options(core::Role::Evaluator, opts),
                                   sock->end());
  (void)endpoint.run(b);
  garbler_thread.join();
  if (gerr) std::rethrow_exception(gerr);
  out.comm = garbler_sent;
  out.comm += sock->sent();
  return out;
}

std::size_t open_fd_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/fd", ec);
  if (ec) return 0;  // no procfs: the fd-leak check degenerates to 0 == 0
  std::size_t n = 0;
  for (const auto& e : it) {
    (void)e;
    ++n;
  }
  return n;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 10'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

void expect_matches_reference(const serve::ClientResult& res, const core::RunResult& ref) {
  EXPECT_EQ(res.outputs, ref.final_outputs);
  EXPECT_EQ(res.cycles, ref.stats.cycles);
  EXPECT_EQ(res.final_cycle, ref.final_cycle);
  EXPECT_EQ(res.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_TRUE(res.table_digest == ref.stats.table_digest);
  const gc::CommStats comm = res.comm_total();
  EXPECT_EQ(comm.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
  EXPECT_EQ(comm.input_label_bytes, ref.stats.comm.input_label_bytes);
  EXPECT_EQ(comm.ot_bytes, ref.stats.comm.ot_bytes);
  EXPECT_EQ(comm.output_bytes, ref.stats.comm.output_bytes);
}

TEST(GarblerService, DifferentialAcrossBackends) {
  const netlist::Netlist nl = adder_netlist();
  const netlist::BitVec a = to_bits(200, 8);
  const netlist::BitVec b = to_bits(55, 8);
  constexpr std::size_t kPool = 16;

  for (const gc::OtBackend ot :
       {gc::OtBackend::Ideal, gc::OtBackend::Iknp, gc::OtBackend::Precomp}) {
    const core::RunResult ref = adder_reference(nl, ot, kPool, a, b);
    EXPECT_EQ(a2gtest::from_bits(ref.final_outputs, 0, 8), 255u);

    const TwoProcessRun two = two_process_run(nl, ot, kPool, a, b);
    EXPECT_EQ(two.garbler.final_outputs, ref.final_outputs);
    EXPECT_TRUE(two.garbler.stats.table_digest == ref.stats.table_digest);
    EXPECT_EQ(two.comm.total(), ref.stats.comm.total());

    serve::GarblerService service({adder_spec(nl, a)}, serve::ServiceOptions{});
    service.start();
    const serve::ClientResult res =
        serve::run_client("127.0.0.1", service.port(), nl, adder_client_opts(ot, kPool), b);
    expect_matches_reference(res, ref);
    service.stop();
    const serve::ServiceStats st = service.stats();
    EXPECT_EQ(st.runs_ok, 1u);
    EXPECT_EQ(st.runs_failed, 0u);
    EXPECT_EQ(st.gates_garbled, ref.stats.garbled_non_xor);
  }
}

/// The legacy thread-count fields accept only 1: each party runs serially.
TEST(GarblerService, RejectsThreadCountsOtherThanOne) {
  const netlist::Netlist nl = adder_netlist();
  const netlist::BitVec a = to_bits(1, 8);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    serve::ServiceOptions so;
    so.exec_threads = threads;
    EXPECT_THROW(serve::GarblerService({adder_spec(nl, a)}, so), std::invalid_argument);

    serve::ClientOptions co = adder_client_opts(gc::OtBackend::Ideal, 16);
    co.threads = threads;
    // Rejected before any connection attempt: port 1 is never dialled.
    EXPECT_THROW((void)serve::run_client("127.0.0.1", 1, nl, co, a), std::invalid_argument);
  }
}

/// A tiny soft limit forces the park-on-write backpressure path on nearly
/// every advance; results must not move.
TEST(GarblerService, BackpressureSoftLimitIsResultInvariant) {
  const netlist::Netlist nl = adder_netlist();
  const netlist::BitVec a = to_bits(17, 8);
  const netlist::BitVec b = to_bits(21, 8);
  const core::RunResult ref =
      adder_reference(nl, gc::OtBackend::Iknp, 16, a, b);

  serve::ServiceOptions so;
  so.send_soft_limit = 256;  // park on write constantly
  serve::GarblerService service({adder_spec(nl, a)}, so);
  service.start();
  const serve::ClientResult res = serve::run_client(
      "127.0.0.1", service.port(), nl, adder_client_opts(gc::OtBackend::Iknp, 16), b);
  expect_matches_reference(res, ref);
  service.stop();
  EXPECT_LE(service.stats().send_queue_high_water, so.send_hard_limit);
}

/// The portable poll() backend must serve byte-identical runs (multi-shard,
/// so the cross-shard handoff path runs too).
TEST(GarblerService, PollBackendDifferential) {
  const netlist::Netlist nl = adder_netlist();
  const netlist::BitVec a = to_bits(100, 8);
  const netlist::BitVec b = to_bits(50, 8);
  const core::RunResult ref = adder_reference(nl, gc::OtBackend::Iknp, 16, a, b);

  serve::ServiceOptions so;
  so.poller = serve::PollerBackend::Poll;
  so.shards = 2;
  serve::GarblerService service({adder_spec(nl, a)}, so);
  service.start();
  for (int i = 0; i < 3; ++i) {
    const serve::ClientResult res = serve::run_client(
        "127.0.0.1", service.port(), nl, adder_client_opts(gc::OtBackend::Iknp, 16), b);
    expect_matches_reference(res, ref);
  }
  service.stop();
  EXPECT_EQ(service.stats().runs_ok, 3u);
}

/// The ARM hamming160 workload end to end: netlist-level service vs the
/// in-process ARM driver, with word-level decode through the machine's
/// bit-view helpers.
TEST(GarblerService, ArmHamming160Differential) {
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const std::vector<std::uint32_t> a = {0x0001F00Du, 2, 3, 4, 5};
  const std::vector<std::uint32_t> b = {6, 7, 8, 0xFF00FF00u, 10};

  core::ExecOptions exec;
  exec.ot_backend = gc::OtBackend::Iknp;
  const arm::Arm2GcResult ref = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec);

  serve::ProgramSpec spec;
  spec.name = "hamming160";
  spec.nl = &machine.cpu().nl;
  spec.opts = machine.party_options(core::Role::Garbler, 1u << 20, gc::Scheme::HalfGates, exec);
  spec.alice_bits = machine.alice_input_bits(a);
  serve::GarblerService service({spec}, serve::ServiceOptions{});
  service.start();

  serve::ClientOptions co;
  co.program = "hamming160";
  co.ot_backend = gc::OtBackend::Iknp;
  co.halt_wire = machine.cpu().halt_wire;
  const serve::ClientResult res = serve::run_client(
      "127.0.0.1", service.port(), machine.cpu().nl, co, machine.bob_input_bits(b));
  service.stop();

  EXPECT_EQ(machine.decode_output_bits(res.outputs), ref.outputs);
  EXPECT_EQ(res.cycles, ref.cycles);
  EXPECT_EQ(res.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_TRUE(res.table_digest == ref.stats.table_digest);
  EXPECT_EQ(res.comm_total().total(), ref.stats.comm.total());
}

/// Hundreds of sequential clients: no fd leaks, exactly one warm-pool miss,
/// every run byte-identical, bounded send-queue high water.
TEST(GarblerService, SequentialChurnNoFdLeakAndWarmHits) {
  const netlist::Netlist nl = adder_netlist();
  const netlist::BitVec a = to_bits(7, 8);
  const netlist::BitVec b = to_bits(35, 8);
  const core::RunResult ref = adder_reference(nl, gc::OtBackend::Ideal, 16, a, b);
  const serve::ClientOptions co = adder_client_opts(gc::OtBackend::Ideal, 16);

  // Warmup lifecycle absorbs lazily created process-wide fds, so the leak
  // check below is an exact equality.
  {
    serve::GarblerService service({adder_spec(nl, a)}, serve::ServiceOptions{});
    service.start();
    (void)serve::run_client("127.0.0.1", service.port(), nl, co, b);
    service.stop();
  }
  const std::size_t fds_before = open_fd_count();

  constexpr std::uint64_t kClients = 200;
  serve::ServiceOptions so;
  so.warm_pool = 2;
  {
    serve::GarblerService service({adder_spec(nl, a)}, so);
    service.start();
    for (std::uint64_t i = 0; i < kClients; ++i) {
      const serve::ClientResult res =
          serve::run_client("127.0.0.1", service.port(), nl, co, b);
      ASSERT_EQ(res.outputs, ref.final_outputs) << "client " << i;
      ASSERT_TRUE(res.table_digest == ref.stats.table_digest) << "client " << i;
    }
    service.stop();
    const serve::ServiceStats st = service.stats();
    EXPECT_EQ(st.accepted, kClients);
    EXPECT_EQ(st.runs_ok, kClients);
    EXPECT_EQ(st.runs_failed, 0u);
    EXPECT_EQ(st.warm_misses, 1u);  // sequential: one cold build, then pool hits
    EXPECT_EQ(st.warm_hits, kClients - 1);
    EXPECT_EQ(st.active, 0u);
    EXPECT_GT(st.send_queue_high_water, 0u);
    EXPECT_LE(st.send_queue_high_water, so.send_hard_limit);
    EXPECT_EQ(st.cycles_run, kClients * ref.stats.cycles);
  }
  EXPECT_EQ(open_fd_count(), fds_before);
}

/// Dozens of concurrent clients across two shards: all complete, all
/// byte-identical, accounting adds up.
TEST(GarblerService, ConcurrentChurn) {
  const netlist::Netlist nl = adder_netlist();
  const netlist::BitVec a = to_bits(90, 8);
  const netlist::BitVec b = to_bits(9, 8);
  const core::RunResult ref = adder_reference(nl, gc::OtBackend::Ideal, 16, a, b);
  const serve::ClientOptions co = adder_client_opts(gc::OtBackend::Ideal, 16);

  serve::ServiceOptions so;
  so.shards = 2;
  so.max_clients = 64;
  so.warm_pool = 8;
  serve::GarblerService service({adder_spec(nl, a)}, so);
  service.start();

  constexpr int kThreads = 24;
  constexpr int kRunsPerThread = 3;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      try {
        for (int r = 0; r < kRunsPerThread; ++r) {
          const serve::ClientResult res =
              serve::run_client("127.0.0.1", service.port(), nl, co, b);
          if (res.outputs != ref.final_outputs ||
              !(res.table_digest == ref.stats.table_digest)) {
            failures[t] = "result mismatch";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  }
  for (auto& c : clients) c.join();
  service.stop();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "client thread " << t << ": " << failures[t];
  }
  const serve::ServiceStats st = service.stats();
  EXPECT_EQ(st.runs_ok, static_cast<std::uint64_t>(kThreads) * kRunsPerThread);
  EXPECT_EQ(st.runs_failed, 0u);
  EXPECT_EQ(st.active, 0u);
  EXPECT_EQ(st.warm_hits + st.warm_misses, st.runs_ok);
}

/// Admission control: a full service answers Busy without reading the hello;
/// the slot frees when the occupant disconnects.
TEST(GarblerService, BusyAtCapacityThenSlotFrees) {
  const netlist::Netlist nl = adder_netlist();
  const netlist::BitVec a = to_bits(1, 8);
  const netlist::BitVec b = to_bits(2, 8);
  const serve::ClientOptions co = adder_client_opts(gc::OtBackend::Ideal, 16);

  serve::ServiceOptions so;
  so.max_clients = 1;
  serve::GarblerService service({adder_spec(nl, a)}, so);
  service.start();

  // Occupy the only slot with a connection that never says hello.
  auto occupant = gc::SocketDuplex::connect("127.0.0.1", service.port());
  ASSERT_TRUE(wait_until([&] { return service.stats().active == 1; }));

  try {
    (void)serve::run_client("127.0.0.1", service.port(), nl, co, b);
    FAIL() << "expected a Busy rejection";
  } catch (const serve::ServiceRejected& e) {
    EXPECT_EQ(e.status(), serve::HelloStatus::Busy);
  }

  occupant.reset();  // disconnect: the service tears the slot down
  ASSERT_TRUE(wait_until([&] { return service.stats().active == 0; }));
  const serve::ClientResult res = serve::run_client("127.0.0.1", service.port(), nl, co, b);
  EXPECT_EQ(a2gtest::from_bits(res.outputs, 0, 8), 3u);
  service.stop();
  EXPECT_GE(service.stats().hello_rejected, 1u);
}

TEST(GarblerService, RejectsUnknownProgramOptionMismatchAndBadMagic) {
  const netlist::Netlist nl = adder_netlist();
  serve::GarblerService service({adder_spec(nl, to_bits(1, 8))}, serve::ServiceOptions{});
  service.start();

  serve::ClientOptions co = adder_client_opts(gc::OtBackend::Ideal, 16);
  co.program = "no-such-program";
  try {
    (void)serve::run_client("127.0.0.1", service.port(), nl, co, to_bits(2, 8));
    FAIL() << "expected UnknownProgram";
  } catch (const serve::ServiceRejected& e) {
    EXPECT_EQ(e.status(), serve::HelloStatus::UnknownProgram);
  }

  co = adder_client_opts(gc::OtBackend::Ideal, 16);
  co.fixed_cycles = 2;  // spec says 1
  try {
    (void)serve::run_client("127.0.0.1", service.port(), nl, co, to_bits(2, 8));
    FAIL() << "expected OptionMismatch";
  } catch (const serve::ServiceRejected& e) {
    EXPECT_EQ(e.status(), serve::HelloStatus::OptionMismatch);
  }

  // The Precomp pool size is bounded at the door: the first refill would
  // allocate 2 * ot_pool pads before the client sends anything else.
  for (const std::uint64_t pool : {std::uint64_t{0}, serve::kMaxOtPool + 1}) {
    co = adder_client_opts(gc::OtBackend::Precomp, static_cast<std::size_t>(pool));
    try {
      (void)serve::run_client("127.0.0.1", service.port(), nl, co, to_bits(2, 8));
      FAIL() << "expected OptionMismatch for ot_pool=" << pool;
    } catch (const serve::ServiceRejected& e) {
      EXPECT_EQ(e.status(), serve::HelloStatus::OptionMismatch);
    }
  }

  // A raw hello that is valid except where `corrupt` touches it.
  const auto raw_hello = [&](const std::function<void(serve::HelloRequest&)>& corrupt) {
    auto sock = gc::SocketDuplex::connect("127.0.0.1", service.port());
    serve::HelloRequest h;
    h.name_len = 6;
    h.ot_pool = 16;
    h.fixed_cycles = 1;
    h.max_cycles = core::PartyOptions{}.max_cycles;
    core::kDefaultProtocolSeed.to_bytes(h.protocol_seed);
    corrupt(h);
    sock->send_control(&h, sizeof h);
    sock->send_control("adder8", 6);
    serve::HelloReply reply{};
    sock->recv_control(&reply, sizeof reply);
    return static_cast<serve::HelloStatus>(reply.status);
  };
  // The old scheme byte is reserved now; so are the six padding bytes.
  EXPECT_EQ(raw_hello([](serve::HelloRequest& h) { h.reserved0 = 1; }),
            serve::HelloStatus::OptionMismatch);
  EXPECT_EQ(raw_hello([](serve::HelloRequest& h) { h.reserved[5] = 0x80; }),
            serve::HelloStatus::OptionMismatch);

  // A non-client peer: 64 zero bytes where the hello should be.
  {
    auto sock = gc::SocketDuplex::connect("127.0.0.1", service.port());
    const std::uint8_t zeros[sizeof(serve::HelloRequest)] = {};
    sock->send_control(zeros, sizeof zeros);
    serve::HelloReply reply{};
    sock->recv_control(&reply, sizeof reply);
    EXPECT_EQ(static_cast<serve::HelloStatus>(reply.status), serve::HelloStatus::BadMagic);
  }

  // None of the rejections leaves the service worse off: a clean client
  // still gets the reference result.
  const core::RunResult ref =
      adder_reference(nl, gc::OtBackend::Ideal, 16, to_bits(1, 8), to_bits(2, 8));
  expect_matches_reference(serve::run_client("127.0.0.1", service.port(), nl,
                                             adder_client_opts(gc::OtBackend::Ideal, 16),
                                             to_bits(2, 8)),
                           ref);

  service.stop();
  EXPECT_EQ(service.stats().hello_rejected, 7u);
  EXPECT_EQ(service.stats().runs_ok, 1u);
}

/// A client dying mid-protocol — right after the hello, or after pushing a
/// few garbage bytes into the protocol stream — must never poison the pooled
/// WarmState: the teardown path re-bases it, and the next client's run is
/// byte-identical to an undisturbed warm run.
TEST(GarblerService, MidProtocolDisconnectNeverPoisonsWarmPool) {
  const netlist::Netlist nl = adder_netlist();
  const netlist::BitVec a = to_bits(40, 8);
  const netlist::BitVec b = to_bits(2, 8);
  const core::RunResult ref = adder_reference(nl, gc::OtBackend::Iknp, 16, a, b);
  const serve::ClientOptions co = adder_client_opts(gc::OtBackend::Iknp, 16);

  serve::ServiceOptions so;
  so.warm_pool = 1;  // every client shares ONE pooled WarmState
  serve::GarblerService service({adder_spec(nl, a)}, so);
  service.start();

  // Clean run 1 populates the pool.
  expect_matches_reference(serve::run_client("127.0.0.1", service.port(), nl, co, b), ref);
  ASSERT_EQ(service.stats().warm_misses, 1u);

  const auto send_hello = [&](gc::SocketDuplex& sock) {
    serve::HelloRequest h;
    h.name_len = 6;
    h.ot_backend = static_cast<std::uint8_t>(gc::OtBackend::Iknp);
    h.ot_pool = 16;
    h.fixed_cycles = 1;
    h.max_cycles = core::PartyOptions{}.max_cycles;
    core::kDefaultProtocolSeed.to_bytes(h.protocol_seed);
    sock.send_control(&h, sizeof h);
    sock.send_control("adder8", 6);
    serve::HelloReply reply{};
    sock.recv_control(&reply, sizeof reply);
    ASSERT_EQ(static_cast<serve::HelloStatus>(reply.status), serve::HelloStatus::Ok);
  };

  // Killer 1: hello, then immediate disconnect (the service is mid-start,
  // holding the pooled WarmState).
  std::uint64_t failed_before = service.stats().runs_failed;
  {
    auto sock = gc::SocketDuplex::connect("127.0.0.1", service.port());
    send_hello(*sock);
  }
  ASSERT_TRUE(wait_until([&] { return service.stats().runs_failed > failed_before; }));

  // Clean run 2 rides the same pooled WarmState the killer touched.
  expect_matches_reference(serve::run_client("127.0.0.1", service.port(), nl, co, b), ref);

  // Killer 2: hello plus garbage protocol bytes, then disconnect — the
  // stream desyncs (bad OT framing) instead of cleanly closing.
  failed_before = service.stats().runs_failed;
  {
    auto sock = gc::SocketDuplex::connect("127.0.0.1", service.port());
    send_hello(*sock);
    const std::uint8_t garbage[64] = {0xFF, 0x13, 0x37};
    sock->send_control(garbage, sizeof garbage);
  }
  ASSERT_TRUE(wait_until([&] { return service.stats().runs_failed > failed_before; }));

  // Clean run 3: still byte-identical.
  expect_matches_reference(serve::run_client("127.0.0.1", service.port(), nl, co, b), ref);
  service.stop();

  const serve::ServiceStats st = service.stats();
  EXPECT_EQ(st.runs_ok, 3u);
  // The killers drew from (and the teardown re-based + returned) the pool.
  EXPECT_EQ(st.warm_misses, 1u);
  EXPECT_EQ(st.warm_hits, 4u);
}

}  // namespace
