// Shared helpers for the test suites.
#pragma once

#include <sys/socket.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/party.h"
#include "core/skipgate.h"
#include "gc/transport.h"
#include "gc/transport_socket.h"
#include "netlist/netlist.h"

namespace a2gtest {

inline arm2gc::netlist::BitVec to_bits(std::uint64_t v, std::size_t width) {
  arm2gc::netlist::BitVec b(width);
  for (std::size_t i = 0; i < width; ++i) b[i] = ((v >> i) & 1u) != 0;
  return b;
}

inline std::uint64_t from_bits(const arm2gc::netlist::BitVec& b, std::size_t off = 0,
                               std::size_t width = 64) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width && off + i < b.size(); ++i) {
    if (b[off + i]) v |= 1ull << i;
  }
  return v;
}

inline arm2gc::netlist::BitVec concat_bits(const arm2gc::netlist::BitVec& a,
                                           const arm2gc::netlist::BitVec& b) {
  arm2gc::netlist::BitVec r = a;
  r.insert(r.end(), b.begin(), b.end());
  return r;
}

/// Two SocketDuplex over one connection — the garbler's end and the
/// evaluator's — carrying the same byte stream the two-process tool and the
/// garbler service put on TCP. Default: a socketpair(AF_UNIX, SOCK_STREAM);
/// tcp_loopback() makes a real TCP connection on 127.0.0.1 instead.
class SocketPair {
 public:
  SocketPair() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    garbler_ = std::make_unique<arm2gc::gc::SocketDuplex>(sv[0]);
    evaluator_ = std::make_unique<arm2gc::gc::SocketDuplex>(sv[1]);
  }

  /// The connect completes from the listen backlog, so one thread can
  /// connect and then accept.
  static SocketPair tcp_loopback() {
    arm2gc::gc::SocketListener listener("127.0.0.1", 0);
    auto garbler = arm2gc::gc::SocketDuplex::connect("127.0.0.1", listener.port());
    return SocketPair(std::move(garbler), listener.accept());
  }

  [[nodiscard]] arm2gc::gc::SocketDuplex& garbler() { return *garbler_; }
  [[nodiscard]] arm2gc::gc::SocketDuplex& evaluator() { return *evaluator_; }
  [[nodiscard]] arm2gc::gc::Transport& garbler_end() { return garbler_->end(); }
  [[nodiscard]] arm2gc::gc::Transport& evaluator_end() { return evaluator_->end(); }

  /// Both directions' accounted bytes: equal to InMemoryDuplex::stats() of
  /// the identical lock-step run.
  [[nodiscard]] arm2gc::gc::CommStats sent() const {
    arm2gc::gc::CommStats s = garbler_->sent();
    s += evaluator_->sent();
    return s;
  }

 private:
  SocketPair(std::unique_ptr<arm2gc::gc::SocketDuplex> garbler,
             std::unique_ptr<arm2gc::gc::SocketDuplex> evaluator)
      : garbler_(std::move(garbler)), evaluator_(std::move(evaluator)) {}

  std::unique_ptr<arm2gc::gc::SocketDuplex> garbler_;
  std::unique_ptr<arm2gc::gc::SocketDuplex> evaluator_;
};

/// True iff `e` is a transport teardown, which only ever echoes the peer's
/// failure.
inline bool is_teardown(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const arm2gc::gc::TransportClosed&) {
    return true;
  } catch (...) {
    return false;
  }
}

/// Runs `garbler(tx)` on a worker thread and `evaluator(tx)` on the calling
/// thread, each over its own end of `duplex` (a SocketPair, or a wrapper
/// with the same ends). A party that throws closes its own socket, so the
/// peer's next read or write fails as gc::TransportClosed instead of
/// hanging. When both fail, the real error is rethrown over a
/// TransportClosed echo. On success returns both directions' accounted
/// bytes, each end flushed.
template <typename Duplex, typename GarblerFn, typename EvaluatorFn>
arm2gc::gc::CommStats run_two_threads(Duplex& duplex, GarblerFn&& garbler,
                                      EvaluatorFn&& evaluator) {
  auto run_party = [](auto& fn, arm2gc::gc::Transport& tx, arm2gc::gc::SocketDuplex& sock,
                      std::exception_ptr& error) {
    try {
      fn(tx);
      sock.flush();
    } catch (...) {
      error = std::current_exception();
      sock.close();
    }
  };
  std::exception_ptr garbler_error;
  std::exception_ptr evaluator_error;
  std::thread worker(
      [&] { run_party(garbler, duplex.garbler_end(), duplex.garbler(), garbler_error); });
  run_party(evaluator, duplex.evaluator_end(), duplex.evaluator(), evaluator_error);
  worker.join();
  if (garbler_error && evaluator_error) {
    std::rethrow_exception(is_teardown(garbler_error) && !is_teardown(evaluator_error)
                               ? evaluator_error
                               : garbler_error);
  }
  if (garbler_error) std::rethrow_exception(garbler_error);
  if (evaluator_error) std::rethrow_exception(evaluator_error);
  return duplex.sent();
}

/// run_two_threads over a fresh SocketPair.
template <typename GarblerFn, typename EvaluatorFn>
arm2gc::gc::CommStats run_two_threads(GarblerFn&& garbler, EvaluatorFn&& evaluator) {
  SocketPair pair;
  return run_two_threads(pair, garbler, evaluator);
}

/// The in-process driver's run, but with each endpoint run()ning on its own
/// thread over a socketpair and the evaluator planning on its own: returns
/// the garbler's result with both directions' comm, directly comparable to
/// SkipGateDriver(nl, opts).run(...).
inline arm2gc::core::RunResult socketpair_run(
    const arm2gc::netlist::Netlist& nl, const arm2gc::core::RunOptions& opts,
    const arm2gc::netlist::BitVec& alice_bits, const arm2gc::netlist::BitVec& bob_bits,
    const arm2gc::netlist::BitVec& pub_bits = {},
    const arm2gc::core::StreamProvider* streams = nullptr) {
  namespace core = arm2gc::core;
  core::RunResult result;
  const arm2gc::gc::CommStats comm = run_two_threads(
      [&](arm2gc::gc::Transport& tx) {
        core::GarblerEndpoint endpoint(nl, core::party_options(core::Role::Garbler, opts), tx,
                                       opts.exec.garbler_warm);
        result = endpoint.run(alice_bits, pub_bits, streams);
      },
      [&](arm2gc::gc::Transport& tx) {
        core::EvaluatorEndpoint endpoint(nl, core::party_options(core::Role::Evaluator, opts),
                                         tx, opts.exec.evaluator_warm);
        (void)endpoint.run(bob_bits, pub_bits, streams);
      });
  result.stats.comm = comm;
  return result;
}

/// Both parties in one process: lock-step on this thread (SkipGateDriver),
/// or each endpoint on its own thread over a socketpair (socketpair_run).
inline arm2gc::core::RunResult two_party_run(
    bool over_socketpair, const arm2gc::netlist::Netlist& nl,
    const arm2gc::core::RunOptions& opts, const arm2gc::netlist::BitVec& alice_bits,
    const arm2gc::netlist::BitVec& bob_bits, const arm2gc::netlist::BitVec& pub_bits = {},
    const arm2gc::core::StreamProvider* streams = nullptr) {
  return over_socketpair
             ? socketpair_run(nl, opts, alice_bits, bob_bits, pub_bits, streams)
             : arm2gc::core::SkipGateDriver(nl, opts).run(alice_bits, bob_bits, pub_bits, streams);
}

/// Fault-injecting transport pair over a SocketPair: ends that count
/// traffic in blocks and, at a configured trip point, deliver only a prefix
/// of the in-flight operation — a partial write (send trip, flushed to the
/// peer) or a short read (recv trip) — then close their own socket: a
/// mid-stream connection loss. A trip point that is not a frame-size
/// multiple lands mid-frame, modeling a peer dying halfway through a
/// message. The tripping side throws gc::TransportClosed itself; the peer
/// sees EOF/EPIPE on its next read or flush and throws the same — so both
/// endpoints surface the teardown as TransportClosed, never as a hang or a
/// wrong label. Drive it with run_two_threads(faulty, ...).
class FaultyDuplex {
 public:
  FaultyDuplex() : garbler_(inner_.garbler()), evaluator_(inner_.evaluator()) {}

  [[nodiscard]] arm2gc::gc::Transport& garbler_end() { return garbler_; }
  [[nodiscard]] arm2gc::gc::Transport& evaluator_end() { return evaluator_; }
  [[nodiscard]] arm2gc::gc::SocketDuplex& garbler() { return inner_.garbler(); }
  [[nodiscard]] arm2gc::gc::SocketDuplex& evaluator() { return inner_.evaluator(); }

  /// Trip after the given total block count in that direction (the tripping
  /// operation's blocks up to the limit are still delivered).
  void fail_garbler_send_after(std::uint64_t blocks) { garbler_.send_trip = blocks; }
  void fail_garbler_recv_after(std::uint64_t blocks) { garbler_.recv_trip = blocks; }
  void fail_evaluator_send_after(std::uint64_t blocks) { evaluator_.send_trip = blocks; }
  void fail_evaluator_recv_after(std::uint64_t blocks) { evaluator_.recv_trip = blocks; }

  [[nodiscard]] arm2gc::gc::CommStats sent() const { return inner_.sent(); }

 private:
  class End : public arm2gc::gc::Transport {
   public:
    explicit End(arm2gc::gc::SocketDuplex& sock) : sock_(&sock) {}

    std::optional<std::uint64_t> send_trip;
    std::optional<std::uint64_t> recv_trip;

    void send(const arm2gc::crypto::Block* blocks, std::size_t n,
              arm2gc::gc::Traffic t) override {
      if (send_trip && sent_ + n > *send_trip) {
        const auto allowed = static_cast<std::size_t>(*send_trip - sent_);
        if (allowed > 0) sock_->end().send(blocks, allowed, t);  // partial write
        trip();
      }
      sock_->end().send(blocks, n, t);
      sent_ += n;
    }

    void recv(arm2gc::crypto::Block* out, std::size_t n) override {
      if (recv_trip && received_ + n > *recv_trip) {
        const auto allowed = static_cast<std::size_t>(*recv_trip - received_);
        if (allowed > 0) sock_->end().recv(out, allowed);  // short read
        trip();
      }
      sock_->end().recv(out, n);
      received_ += n;
    }

    void account(arm2gc::gc::Traffic t, std::uint64_t bytes) override {
      sock_->end().account(t, bytes);
    }

    void flush() override { sock_->flush(); }

   private:
    [[noreturn]] void trip() {
      sock_->flush();  // the socket buffers writes: push the prefix out first
      sock_->close();  // the peer's next read or flush throws too
      throw arm2gc::gc::TransportClosed{};
    }

    arm2gc::gc::SocketDuplex* sock_;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
  };

  SocketPair inner_;
  End garbler_;
  End evaluator_;
};

}  // namespace a2gtest
