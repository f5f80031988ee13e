// Tests for tools/arm2gc_lint: every rule must fire on its failing fixture
// under tests/lint_fixtures/ and stay silent on the clean one — and the real
// tree, under the committed tools/lint_rules.toml, must lint clean. That
// last test is the machine check of the party-separation invariants: it runs
// in the regular ctest sweep, so a layering/secrecy regression fails tier-1
// even where clang-tidy is unavailable.
//
// ARM2GC_SOURCE_ROOT is injected by CMake (the lint fixtures and the rules
// file are read from the source tree, not copied into the build tree).
#include <algorithm>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.h"

namespace lint = arm2gc::lint;

namespace {

const std::string kRoot = ARM2GC_SOURCE_ROOT;
const std::string kFixtures = kRoot + "/tests/lint_fixtures";

/// Lints one fixture tree against the shared fixture rules.
std::vector<lint::Finding> lint_fixture(const std::string& name) {
  const lint::Rules rules = lint::load_rules(kFixtures + "/common_rules.toml");
  const std::string root = kFixtures + "/" + name;
  return lint::run_lint(root, rules, lint::collect_sources(root, rules));
}

std::multiset<std::string> rules_of(const std::vector<lint::Finding>& findings) {
  std::multiset<std::string> out;
  for (const auto& f : findings) out.insert(f.rule);
  return out;
}

}  // namespace

TEST(LintFixtures, CleanTreePasses) {
  const auto findings = lint_fixture("clean");
  EXPECT_TRUE(findings.empty()) << lint::format_finding(findings.front());
}

TEST(LintFixtures, LayerViolationFires) {
  const auto findings = lint_fixture("layer_violation");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer");
  EXPECT_EQ(findings[0].file, "src/crypto/rng.h");
  EXPECT_NE(findings[0].message.find("gc/transport.h"), std::string::npos);
}

TEST(LintFixtures, GarblerSymbolInEvaluatorTuFires) {
  const auto findings = lint_fixture("role_garbler_in_eval");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(rules_of(findings), (std::multiset<std::string>{"role", "role"}));
  // Both the free-XOR offset R and the session type are caught.
  EXPECT_NE(findings[0].message.find("`R`"), std::string::npos);
  EXPECT_NE(findings[1].message.find("`GarblerSession`"), std::string::npos);
}

TEST(LintFixtures, OtPoolSymbolInEvaluatorTuFires) {
  // The precomputed random-OT pool's sender half stores both pads of every
  // banked OT — naming it in an evaluator TU is a role-secrecy violation
  // exactly like naming the free-XOR offset.
  const auto findings = lint_fixture("role_pool_in_eval");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "role");
  EXPECT_NE(findings[0].message.find("`RandomOtPoolSender`"), std::string::npos);
}

TEST(LintFixtures, EvaluatorSymbolInGarblerTuFires) {
  const auto findings = lint_fixture("role_eval_in_garbler");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "role");
  EXPECT_NE(findings[0].message.find("`OtReceiver`"), std::string::npos);
}

TEST(LintFixtures, BothRolesInUnlistedFileFires) {
  const auto findings = lint_fixture("dual_unlisted");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "dual");
  EXPECT_EQ(findings[0].file, "src/core/helper.cpp");
}

TEST(LintFixtures, TransitivePurityIncludeFires) {
  // plan.h reaches crypto/rng.h only through core/state.h: the include
  // CLOSURE is checked, not just direct includes.
  const auto findings = lint_fixture("purity_include");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "purity");
  EXPECT_EQ(findings[0].file, "src/core/state.h");
  EXPECT_NE(findings[0].message.find("crypto/rng.h"), std::string::npos);
}

TEST(LintFixtures, PuritySymbolFires) {
  const auto findings = lint_fixture("purity_symbol");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "purity");
  EXPECT_NE(findings[0].message.find("`CtrRng`"), std::string::npos);
}

TEST(LintFixtures, UnauditedSecretSendFires) {
  const auto findings = lint_fixture("transport_leak");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "transport");
  // The call site is resolved to its qualified enclosing function.
  EXPECT_NE(findings[0].message.find("EvaluatorSession::run"), std::string::npos);
}

TEST(LintFixtures, BannedIdentifierFires) {
  const auto findings = lint_fixture("banned");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned");
  EXPECT_NE(findings[0].message.find("`rand`"), std::string::npos);
}

TEST(LintFixtures, CommentsAndStringsAreNotReferences) {
  // The real evaluator header mentions GarblerSession in a comment; the
  // tokenizer must strip it (this is why the real tree below lints clean).
  const lint::Rules rules = lint::load_rules(kRoot + "/tools/lint_rules.toml");
  const auto findings = lint::run_lint(kRoot, rules, {"src/core/evaluator.h"});
  for (const auto& f : findings) EXPECT_NE(f.rule, "role") << lint::format_finding(f);
}

TEST(LintRules, StaleAllowEntryIsAConfigFinding) {
  lint::Rules rules = lint::load_rules(kFixtures + "/common_rules.toml");
  rules.transport_allow.push_back("src/core/plan.cpp:fix::nonexistent");
  const std::string root = kFixtures + "/clean";
  const auto findings = lint::run_lint(root, rules, lint::collect_sources(root, rules));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "config");
  EXPECT_NE(findings[0].message.find("stale"), std::string::npos);
}

TEST(LintRules, MalformedRulesThrow) {
  EXPECT_THROW((void)lint::parse_rules("[scan\ndirs = [\"src\"]"), std::runtime_error);
  EXPECT_THROW((void)lint::parse_rules("[scan]\ndirs = [unquoted]"), std::runtime_error);
  EXPECT_THROW((void)lint::parse_rules("[scan]\ndirs = [\"src\""), std::runtime_error);
  EXPECT_THROW((void)lint::parse_rules("# no scan dirs at all"), std::runtime_error);
}

TEST(LintRules, ParsesMultiLineArraysAndComments) {
  const lint::Rules r = lint::parse_rules(
      "[scan]\n"
      "dirs = [\n"
      "  \"src\",  # trailing comment\n"
      "  \"tools\",\n"
      "]\n"
      "[banned]\n"
      "symbols = [\"rand\"]\n"
      "scope_dirs = [\"src\"]\n");
  EXPECT_EQ(r.scan_dirs, (std::vector<std::string>{"src", "tools"}));
  EXPECT_EQ(r.banned_symbols, (std::vector<std::string>{"rand"}));
}

// ---------------------------------------------------------------------------
// The gate: the real tree is clean under the committed rules. A failure here
// names the exact file/line/rule — fix the code or (for a consciously
// widened surface) amend tools/lint_rules.toml in the same reviewed diff.
// ---------------------------------------------------------------------------
TEST(LintRealTree, CleanUnderCommittedRules) {
  const lint::Rules rules = lint::load_rules(kRoot + "/tools/lint_rules.toml");
  const auto files = lint::collect_sources(kRoot, rules);
  // Sanity: the sweep actually sees the tree (catches a bad SOURCE_ROOT).
  ASSERT_GT(files.size(), 50u);
  ASSERT_NE(std::find(files.begin(), files.end(), "src/core/plan.cpp"), files.end());
  const auto findings = lint::run_lint(kRoot, rules, files);
  std::string all;
  for (const auto& f : findings) all += "  " + lint::format_finding(f) + "\n";
  EXPECT_TRUE(findings.empty()) << "lint findings:\n" << all;
}

TEST(LintRealTree, CompileCommandsCoverage) {
  // When the build exported a compilation database, every compiled TU must
  // be inside the lint sweep (a TU the linter cannot see is a hole).
  const std::string db = std::string(ARM2GC_BINARY_DIR) + "/compile_commands.json";
  std::ifstream probe(db);
  if (!probe) GTEST_SKIP() << "no compile_commands.json in build dir";
  const lint::Rules rules = lint::load_rules(kRoot + "/tools/lint_rules.toml");
  const auto swept = lint::collect_sources(kRoot, rules);
  for (const std::string& tu : lint::tus_from_compile_commands(db, kRoot, rules)) {
    EXPECT_NE(std::find(swept.begin(), swept.end(), tu), swept.end())
        << tu << " is compiled but not linted";
  }
}
