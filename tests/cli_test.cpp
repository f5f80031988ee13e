// Checked flag-value parsing for the command-line tools (tools/cli_args.h):
// out-of-range ports, negative counts, trailing garbage and words wider
// than 32 bits are rejected by the parse functions, and, end to end, by
// both tool binaries, which print usage and exit with status 2. Also: an
// arm2gc_party evaluator rejects a garbler peer's forged wrap-up size.
//
// ARM2GC_PARTY_BIN / ARM2GC_SERVE_BIN are injected by CMake.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arm/arm2gc.h"
#include "cli_args.h"
#include "gc/transport_socket.h"
#include "programs/programs.h"

namespace {

using arm2gc::cli::FlagParser;
using arm2gc::cli::kMaxU64;
using arm2gc::cli::parse_hostport;
using arm2gc::cli::parse_uint;
using arm2gc::cli::parse_words;

TEST(CliParse, UintRejectsSignsGarbageAndOverflow) {
  EXPECT_EQ(parse_uint("12"), 12u);
  EXPECT_EQ(parse_uint("0x10"), 16u);
  EXPECT_EQ(parse_uint("18446744073709551615"), kMaxU64);
  EXPECT_EQ(parse_uint("ff", 0xff, 16), 0xffu);
  EXPECT_FALSE(parse_uint("-1"));  // strtoull alone would yield 2^64-1
  EXPECT_FALSE(parse_uint("+1"));
  EXPECT_FALSE(parse_uint(" 1"));
  EXPECT_FALSE(parse_uint("12abc"));
  EXPECT_FALSE(parse_uint(""));
  EXPECT_FALSE(parse_uint("0x"));
  EXPECT_FALSE(parse_uint("18446744073709551616"));  // 2^64
  EXPECT_FALSE(parse_uint("5", 4));
  EXPECT_FALSE(parse_uint("0x10", kMaxU64, 10));
}

TEST(CliParse, HostPortRejectsPortsOutsideSixteenBits) {
  const auto hp = parse_hostport("127.0.0.1:7431");
  ASSERT_TRUE(hp);
  EXPECT_EQ(hp->first, "127.0.0.1");
  EXPECT_EQ(hp->second, 7431u);
  EXPECT_EQ(parse_hostport("localhost:65535")->second, 65535u);
  EXPECT_FALSE(parse_hostport("127.0.0.1:70000"));  // not port 70000 mod 2^16 = 4464
  EXPECT_FALSE(parse_hostport("127.0.0.1:-1"));
  EXPECT_FALSE(parse_hostport("127.0.0.1:12abc"));
  EXPECT_FALSE(parse_hostport("127.0.0.1:"));
  EXPECT_FALSE(parse_hostport("127.0.0.1"));
  EXPECT_FALSE(parse_hostport(":7431"));
}

TEST(CliParse, WordsAreChecked32BitValues) {
  EXPECT_EQ(*parse_words("1,0x2,,3"), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(*parse_words("0xffffffff"), (std::vector<std::uint32_t>{0xffffffffu}));
  EXPECT_TRUE(parse_words("")->empty());
  EXPECT_FALSE(parse_words("0x1ffffffff"));  // not truncated to 0xffffffff
  EXPECT_FALSE(parse_words("1,-1"));
  EXPECT_FALSE(parse_words("1,12abc"));
}

void exit_usage(const char* msg) {
  std::fprintf(stderr, "usage error: %s\n", msg);
  std::exit(2);
}

TEST(CliFlagParser, BadValuesReachUsageAndExitTwo) {
  const FlagParser flags(exit_usage);
  EXPECT_EQ(flags.uint("--shards", "4"), 4u);
  EXPECT_EQ(flags.hostport("--listen", "127.0.0.1:0").second, 0u);
  EXPECT_EXIT((void)flags.uint("--shards", "-1"), ::testing::ExitedWithCode(2),
              "--shards expects");
  EXPECT_EXIT((void)flags.uint("--runs", "12abc"), ::testing::ExitedWithCode(2), "--runs expects");
  EXPECT_EXIT((void)flags.hostport("--listen", "127.0.0.1:70000"), ::testing::ExitedWithCode(2),
              "--listen expects host:port");
  EXPECT_EXIT((void)flags.words("--input", "0x1ffffffff"), ::testing::ExitedWithCode(2),
              "--input expects");
}

/// Runs a tool command line, returning its exit status (-1 if it did not
/// exit normally).
int exit_status(const std::string& cmd) {
  const int rc = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliTools, BadNumericFlagsExitTwoBeforeAnyWork) {
  const std::string party = ARM2GC_PARTY_BIN;
  const std::string serve = ARM2GC_SERVE_BIN;
  const std::string local = party + " --role local --program sum32 --bob 1";
  EXPECT_EQ(exit_status(party + " --role garbler --listen 127.0.0.1:70000 --program sum32 "
                                "--input 1"),
            2);
  EXPECT_EQ(exit_status(local + " --alice 0x1ffffffff"), 2);
  EXPECT_EQ(exit_status(local + " --alice 1 --max-cycles 12abc"), 2);
  EXPECT_EQ(exit_status(local + " --alice 1 --ot-pool -1"), 2);
  EXPECT_EQ(exit_status(serve + " --mode serve --listen 127.0.0.1:70000 --program sum32 "
                                "--input 1"),
            2);
  EXPECT_EQ(exit_status(serve + " --mode serve --listen 127.0.0.1:0 --program sum32 --input 1 "
                                "--shards -1"),
            2);
  EXPECT_EQ(exit_status(serve + " --mode client --connect 127.0.0.1:1 --program sum32 "
                                "--input 1 --runs 12abc"),
            2);
  // serve::kMaxOtPool + 1: the pool bound the service enforces at the door.
  EXPECT_EQ(exit_status(serve + " --mode client --connect 127.0.0.1:1 --program sum32 "
                                "--input 1 --ot-pool 65537"),
            2);
}

TEST(CliTools, OnlyRealOtBackendsAreAccepted) {
  // The retired stand-in that sent both labels is no longer a choice.
  const std::string party =
      std::string(ARM2GC_PARTY_BIN) + " --role local --program sum32 --alice 1 --bob 1";
  const std::string serve = std::string(ARM2GC_SERVE_BIN) +
                            " --mode client --connect 127.0.0.1:1 --program sum32 --input 1";
  EXPECT_EQ(exit_status(party + " --ot ideal"), 2);
  EXPECT_EQ(exit_status(serve + " --ot ideal"), 2);
  EXPECT_EQ(exit_status(party + " --ot iknp"), 0);
}

/// Byte mirror of arm2gc_party's out-of-band wrap-up summary.
struct PartyWireSummary {
  std::uint64_t magic = 0x61326763'70617274ull;  // "a2gcpart"
  std::uint64_t cycles = 0;
  std::uint64_t garbled_non_xor = 0;
  std::uint8_t digest[16] = {};
  std::uint64_t comm[4] = {};
  std::uint64_t out_count = 0;
};
static_assert(sizeof(PartyWireSummary) == 80, "arm2gc_party wrap-up layout");

TEST(CliTools, EvaluatorRejectsForgedOutputCount) {
  // The test plays an honest garbler for the whole protocol, then forges the
  // wrap-up's output-word count. The evaluator must fail with a named error
  // before it sizes anything from that count.
  using namespace arm2gc;
  gc::SocketListener listener("127.0.0.1", 0);
  listener.set_nonblocking(true);
  const std::string cmd = std::string(ARM2GC_PARTY_BIN) +
                          " --role evaluator --connect 127.0.0.1:" +
                          std::to_string(listener.port()) + " --program sum32 --input 2 2>&1";
  int status = -1;
  std::string output;
  std::thread evaluator([&] {
    FILE* p = ::popen(cmd.c_str(), "r");
    if (p == nullptr) return;
    char buf[256];
    while (std::fgets(buf, sizeof buf, p) != nullptr) output += buf;
    const int rc = ::pclose(p);
    status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  });

  std::unique_ptr<gc::SocketDuplex> sock;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sock == nullptr && std::chrono::steady_clock::now() < deadline) {
    sock = listener.try_accept();
    if (sock == nullptr) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::string garbler_error;
  if (sock != nullptr) {
    try {
      const programs::Program prog = programs::sum(1);
      const arm::Arm2Gc machine(prog.cfg, prog.words);
      const arm::Arm2GcResult r = machine.run_garbler(
          std::vector<std::uint32_t>{1}, sock->end(),
          machine.party_options(core::Role::Garbler, 1u << 20));
      PartyWireSummary w;
      w.cycles = r.cycles;
      w.garbled_non_xor = r.stats.garbled_non_xor;
      r.stats.table_digest.to_bytes(w.digest);
      w.out_count = 1ull << 40;
      sock->send_control(&w, sizeof w);
    } catch (const std::exception& e) {
      garbler_error = e.what();
    }
  }
  evaluator.join();
  ASSERT_NE(sock, nullptr) << "the evaluator never connected: " << output;
  EXPECT_TRUE(garbler_error.empty()) << garbler_error;
  EXPECT_EQ(status, 1) << output;
  EXPECT_NE(output.find("output words"), std::string::npos) << output;
}

TEST(CliTools, ThreadFlagsAreGone) {
  // Each party runs serially, so neither tool accepts a thread count; and
  // half-gates is the only garbling scheme, so neither accepts --scheme, not
  // even naming the one scheme there is.
  const std::string party =
      std::string(ARM2GC_PARTY_BIN) + " --role local --program sum32 --alice 1 --bob 1";
  const std::string serve = std::string(ARM2GC_SERVE_BIN) +
                            " --mode serve --listen 127.0.0.1:0 --program sum32 --input 1";
  EXPECT_EQ(exit_status(party + " --threads 1"), 2);
  EXPECT_EQ(exit_status(serve + " --exec-threads 1"), 2);
  EXPECT_EQ(exit_status(party + " --scheme halfgates"), 2);
  EXPECT_EQ(exit_status(serve + " --scheme halfgates"), 2);
}

TEST(CliTools, GoodFlagsStillRun) {
  EXPECT_EQ(exit_status(std::string(ARM2GC_PARTY_BIN) +
                        " --role local --program sum32 --alice 0x7fffffff --bob 1"),
            0);
}

}  // namespace
