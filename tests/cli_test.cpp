// Checked flag-value parsing for the command-line tools (tools/cli_args.h):
// out-of-range ports, negative counts, trailing garbage and words wider
// than 32 bits are rejected by the parse functions, and, end to end, by
// both tool binaries, which print usage and exit with status 2.
//
// ARM2GC_PARTY_BIN / ARM2GC_SERVE_BIN are injected by CMake.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_args.h"

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
