// webcc_lint's contract: every fixture under tests/data/lint trips exactly
// the rule it is named for, clean code passes, and pragmas suppress. The
// fixtures are the executable specification of the rules — a rule change
// that silently stops flagging its fixture fails here, not in review.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace webcc::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(WEBCC_TEST_DATA_DIR) + "/lint/" + name;
}

struct RunResult {
  int exit_code = 0;
  std::string out;
  std::string err;
};

RunResult RunCli(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunLintMain(args, out, err);
  return {code, out.str(), err.str()};
}

bool HasRule(const std::vector<Finding>& findings, std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [rule](const Finding& f) { return f.rule == rule; });
}

TEST(LintRules, RuleIdsAreStable) {
  const std::vector<std::string_view> expected = {
      "determinism-clock",   "unordered-iter-in-dump", "raw-mutex",
      "naked-send",          "guarded-by-unlocked",    "lock-order-cycle",
      "determinism-taint",   "stale-suppression"};
  EXPECT_EQ(RuleIds(), expected);
}

TEST(LintRules, LegacyRuleIdsSurviveTokenizerRewrite) {
  // The v1 scanner's ids that survive lead the list unchanged — suppression
  // pragmas written against v1 keep working.
  const std::vector<std::string_view> legacy = {
      "determinism-clock", "unordered-iter-in-dump", "raw-mutex",
      "naked-send"};
  const std::vector<std::string_view> ids = RuleIds();
  ASSERT_GE(ids.size(), legacy.size());
  EXPECT_TRUE(std::equal(legacy.begin(), legacy.end(), ids.begin()));
}

// --- one fixture per rule, asserting exit code and rule id -----------------

struct FixtureCase {
  const char* file;
  const char* rule;
};

class LintFixtureTest : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(LintFixtureTest, FlagsItsRule) {
  const FixtureCase& c = GetParam();
  const RunResult result = RunCli({FixturePath(c.file)});
  EXPECT_EQ(result.exit_code, 1) << result.out << result.err;
  EXPECT_NE(result.out.find(std::string("[") + c.rule + "]"),
            std::string::npos)
      << result.out;
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixtureTest,
    ::testing::Values(
        FixtureCase{"clock_violation.cc", "determinism-clock"},
        FixtureCase{"unordered_dump_violation.cc", "unordered-iter-in-dump"},
        FixtureCase{"raw_mutex_violation.cc", "raw-mutex"},
        FixtureCase{"live_naked_send_violation.cc", "naked-send"},
        FixtureCase{"lock_discipline_violation.cc", "guarded-by-unlocked"},
        FixtureCase{"lock_order_violation.cc", "lock-order-cycle"},
        FixtureCase{"taint_violation.cc", "determinism-taint"}),
    [](const ::testing::TestParamInfo<FixtureCase>& info) {
      // Fixture file stem: unique even when two fixtures share a rule.
      std::string name = info.param.file;
      name.resize(name.size() - 3);  // strip ".cc"
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(LintCli, CleanFileExitsZero) {
  const RunResult result = RunCli({FixturePath("clean.cc")});
  EXPECT_EQ(result.exit_code, 0) << result.out << result.err;
  EXPECT_TRUE(result.out.empty()) << result.out;
}

TEST(LintCli, PragmasSuppressEveryFinding) {
  const RunResult result = RunCli({FixturePath("suppressed.cc")});
  EXPECT_EQ(result.exit_code, 0) << result.out << result.err;
}

TEST(LintCli, DirectoryScanFindsAllFixtures) {
  const RunResult result = RunCli({FixturePath("")});
  EXPECT_EQ(result.exit_code, 1);
  for (const std::string_view rule : RuleIds()) {
    EXPECT_NE(result.out.find(std::string("[") + std::string(rule) + "]"),
              std::string::npos)
        << "directory scan missed " << rule << "\n"
        << result.out;
  }
}

TEST(LintCli, JsonOutputIsMachineReadable) {
  const RunResult result = RunCli({"--json", FixturePath("clock_violation.cc")});
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.out.find("\"rule\":\"determinism-clock\""),
            std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("\"line\":"), std::string::npos);
}

TEST(LintCli, UsageErrorsExitTwo) {
  EXPECT_EQ(RunCli({}).exit_code, 2);
  EXPECT_EQ(RunCli({"--bogus-flag"}).exit_code, 2);
  EXPECT_EQ(RunCli({FixturePath("no_such_file.cc")}).exit_code, 2);
}

// --- rule semantics on inline snippets -------------------------------------

TEST(LintRules, CommentsAndStringsDoNotTrip) {
  const std::vector<Finding> findings = LintFile(
      "src/replay/x.cc",
      "// the old code called rand() here\n"
      "/* std::mutex was considered */\n"
      "const char* kDoc = \"uses system_clock\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRules, UnorderedIterOutsideDumpIsFine) {
  const std::vector<Finding> findings = LintFile(
      "src/core/x.cc",
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> table_;\n"
      "int Sum() {\n"
      "  int n = 0;\n"
      "  for (const auto& [k, v] : table_) n += v;\n"
      "  return n;\n"
      "}\n");
  EXPECT_FALSE(HasRule(findings, "unordered-iter-in-dump"));
}

TEST(LintRules, UnorderedBeginInSerializeIsFlagged) {
  const std::vector<Finding> findings = LintFile(
      "src/core/x.cc",
      "#include <unordered_set>\n"
      "std::unordered_set<int> seen_;\n"
      "void Serialize() {\n"
      "  auto it = seen_.begin();\n"
      "}\n");
  EXPECT_TRUE(HasRule(findings, "unordered-iter-in-dump"));
}

TEST(LintRules, ClockRuleExemptsLiveCliUtil) {
  const std::string text = "int Jitter() { return rand() % 10; }\n";
  EXPECT_FALSE(HasRule(LintFile("src/live/x.cc", text), "determinism-clock"));
  EXPECT_FALSE(HasRule(LintFile("src/cli/x.cc", text), "determinism-clock"));
  EXPECT_FALSE(HasRule(LintFile("src/util/x.cc", text), "determinism-clock"));
  EXPECT_TRUE(HasRule(LintFile("src/replay/x.cc", text), "determinism-clock"));
}

TEST(LintRules, SocketCcIsExemptFromNakedSend) {
  const std::string text = "long F(int fd) { return ::send(fd, 0, 0, 0); }\n";
  EXPECT_FALSE(HasRule(LintFile("src/live/socket.cc", text), "naked-send"));
  EXPECT_TRUE(HasRule(LintFile("src/live/live_proxy.cc", text), "naked-send"));
}

TEST(LintRules, NakedSendFlagsSyscallsNotMemberCalls) {
  const std::string path = "src/live/live_server.cc";
  for (const std::string call :
       {"recv(fd, b, n, 0)", "::write(fd, b, n)", "::read(fd, b, n)"}) {
    const std::string text = "long F(int fd, char* b, int n) { return " +
                             call + "; }\n";
    EXPECT_TRUE(HasRule(LintFile(path, text), "naked-send")) << call;
  }
  // A stream's or wrapper's own send/write/read is not the syscall.
  for (const std::string call :
       {"out.send(b)", "stream->write(b, n)", "file.read(b, n)"}) {
    const std::string text = "long F(char* b, int n) { return " + call +
                             "; }\n";
    EXPECT_FALSE(HasRule(LintFile(path, text), "naked-send")) << call;
  }
}

TEST(LintRules, ThreadAnnotationsHeaderMayHoldRawMutex) {
  const std::string text = "#include <mutex>\nstd::mutex mu_;\n";
  EXPECT_FALSE(
      HasRule(LintFile("src/util/thread_annotations.h", text), "raw-mutex"));
  EXPECT_TRUE(HasRule(LintFile("src/replay/farm.h", text), "raw-mutex"));
}

TEST(LintRules, AllowOnPreviousLineSuppresses) {
  const std::vector<Finding> findings = LintFile(
      "src/replay/x.cc",
      "// webcc-lint: allow(determinism-clock) — justified\n"
      "int Jitter() { return rand() % 10; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRules, AllowForOneRuleDoesNotSilenceAnother) {
  const std::vector<Finding> findings = LintFile(
      "src/replay/x.cc",
      "// webcc-lint: allow(raw-mutex)\n"
      "int Jitter() { return rand() % 10; }\n");
  EXPECT_TRUE(HasRule(findings, "determinism-clock"));
}

// --- tokenizer fidelity ------------------------------------------------------

TEST(LintTokenizer, RawStringsAndPreprocessorDoNotTrip) {
  // The v1 line scanner could not see raw-string bounds; the tokenizer
  // must keep rand()/clock names inside literals inert.
  const std::vector<Finding> findings = LintFile(
      "src/replay/x.cc",
      "const char* kHelp = R\"(call rand() or check system_clock)\";\n"
      "const char* kDelim = R\"x(time(0) \")\" still inside)x\";\n"
      "#define CALLS_RAND 0 /* not rand() */\n");
  EXPECT_TRUE(findings.empty()) << findings.size();
}

TEST(LintTokenizer, PragmaInsideStringLiteralIsInert) {
  // A pragma spelled in a string is data, not a suppression — the finding
  // on the same line still fires.
  const std::vector<Finding> findings = LintFile(
      "src/replay/x.cc",
      "const char* kDoc = \"webcc-lint: allow(determinism-clock)\";\n"
      "int Jitter() { return rand() % 10; }\n");
  EXPECT_TRUE(HasRule(findings, "determinism-clock"));
}

// --- lock-discipline pass ----------------------------------------------------

TEST(LintCli, GuardedFieldWithoutLockFailsWithWitnessChain) {
  const RunResult result =
      RunCli({FixturePath("lock_discipline_violation.cc")});
  EXPECT_EQ(result.exit_code, 1) << result.out << result.err;
  EXPECT_NE(result.out.find("[guarded-by-unlocked]"), std::string::npos)
      << result.out;
  // The witness names both the access and the declaration, file:line each.
  EXPECT_NE(result.out.find(FixturePath("lock_discipline_violation.cc") +
                            ":20: unguarded access"),
            std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find(FixturePath("lock_discipline_violation.cc") +
                            ":25: field 'granted_' declared"),
            std::string::npos)
      << result.out;
}

TEST(LintCli, LockDisciplineCounterpartIsClean) {
  // Same board, but the getter locks and the helper carries a
  // WEBCC_REQUIRES contract — no finding.
  const RunResult result = RunCli({FixturePath("lock_discipline_clean.cc")});
  EXPECT_EQ(result.exit_code, 0) << result.out << result.err;
  EXPECT_TRUE(result.out.empty()) << result.out;
}

TEST(LintRules, RequiresContractCoversGuardedAccess) {
  const std::string text =
      "class Board {\n"
      " public:\n"
      "  void Bump() WEBCC_REQUIRES(mu_) { n_ += 1; }\n"
      " private:\n"
      "  util::Mutex mu_;\n"
      "  int n_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_FALSE(HasRule(LintFile("src/core/x.h", text), "guarded-by-unlocked"));
}

TEST(LintRules, ConstructorsAreExemptFromLockDiscipline) {
  const std::string text =
      "class Board {\n"
      " public:\n"
      "  Board() { n_ = 0; }\n"
      "  ~Board() { n_ = -1; }\n"
      " private:\n"
      "  util::Mutex mu_;\n"
      "  int n_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_FALSE(HasRule(LintFile("src/core/x.h", text), "guarded-by-unlocked"));
}

TEST(LintRules, NoTsaLambdaIsExemptFromLockDiscipline) {
  // The CondVar::Wait predicate idiom: the lambda runs with the lock held
  // by the wait machinery, which the analyzer cannot see — the annotation
  // opts it out, exactly like clang's analysis.
  const std::string text =
      "class Farm {\n"
      "  void Wait() {\n"
      "    cv_.Wait([this]() WEBCC_NO_THREAD_SAFETY_ANALYSIS {\n"
      "      return done_ > 0;\n"
      "    });\n"
      "  }\n"
      "  util::Mutex mu_;\n"
      "  util::CondVar cv_;\n"
      "  int done_ WEBCC_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_FALSE(HasRule(LintFile("src/core/x.h", text), "guarded-by-unlocked"));
}

// --- lock-order pass ---------------------------------------------------------

TEST(LintCli, LockOrderCycleWitnessNamesEveryEdge) {
  const RunResult result = RunCli({FixturePath("lock_order_violation.cc")});
  EXPECT_EQ(result.exit_code, 1) << result.out << result.err;
  EXPECT_NE(result.out.find("[lock-order-cycle]"), std::string::npos)
      << result.out;
  // One witness line per edge of the cycle, each with file:line.
  EXPECT_NE(
      result.out.find(FixturePath("lock_order_violation.cc") +
                      ":16: InvertedFanout::PushInvalidation acquires"),
      std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find(FixturePath("lock_order_violation.cc") +
                            ":20: InvertedFanout::DrainOutbox acquires"),
            std::string::npos)
      << result.out;
}

TEST(LintCli, ConsistentLockOrderIsClean) {
  const RunResult result = RunCli({FixturePath("lock_order_clean.cc")});
  EXPECT_EQ(result.exit_code, 0) << result.out << result.err;
  EXPECT_TRUE(result.out.empty()) << result.out;
}

TEST(LintRules, DeclaredAcquiredBeforeConflictIsACycle) {
  // The declared edge pins mu_a before mu_b; code that nests them the
  // other way contradicts the declaration.
  const std::string text =
      "class Pinned {\n"
      "  void Backwards() {\n"
      "    const util::MutexLock b(mu_b_);\n"
      "    const util::MutexLock a(mu_a_);\n"
      "  }\n"
      "  util::Mutex mu_a_ WEBCC_ACQUIRED_BEFORE(mu_b_);\n"
      "  util::Mutex mu_b_;\n"
      "};\n";
  EXPECT_TRUE(HasRule(LintFile("src/core/x.h", text), "lock-order-cycle"));
}

// --- determinism-taint pass --------------------------------------------------

TEST(LintCli, TaintedEmitFailsAndSortedCounterpartIsClean) {
  const RunResult bad = RunCli({FixturePath("taint_violation.cc")});
  EXPECT_EQ(bad.exit_code, 1) << bad.out << bad.err;
  EXPECT_NE(bad.out.find("[determinism-taint]"), std::string::npos) << bad.out;
  EXPECT_NE(bad.out.find("unordered container 'hits_' iterated here"),
            std::string::npos)
      << bad.out;

  const RunResult good = RunCli({FixturePath("taint_clean.cc")});
  EXPECT_EQ(good.exit_code, 0) << good.out << good.err;
  EXPECT_TRUE(good.out.empty()) << good.out;
}

TEST(LintCli, TaintedPushFailsAndSortedCounterpartIsClean) {
  // The live push path's sink is TcpStream::WriteAll.
  const RunResult bad = RunCli({FixturePath("push_taint_violation.cc")});
  EXPECT_EQ(bad.exit_code, 1) << bad.out << bad.err;
  EXPECT_NE(bad.out.find("[determinism-taint]"), std::string::npos) << bad.out;
  EXPECT_NE(bad.out.find("'WriteAll(' emits values in hash-iteration order"),
            std::string::npos)
      << bad.out;
  EXPECT_NE(bad.out.find("unordered container 'frames_' iterated here"),
            std::string::npos)
      << bad.out;

  const RunResult good = RunCli({FixturePath("push_taint_clean.cc")});
  EXPECT_EQ(good.exit_code, 0) << good.out << good.err;
  EXPECT_TRUE(good.out.empty()) << good.out;
}

TEST(LintRules, AccumulatedVectorCarriesTaintAcrossLoops) {
  // Pushing hash-ordered values into a vector and emitting the vector
  // without a sort is still nondeterministic.
  const std::string text =
      "void Publish() {\n"
      "  std::unordered_map<int, int> hits_;\n"
      "  std::vector<int> lines;\n"
      "  for (const auto& [k, v] : hits_) {\n"
      "    lines.push_back(v);\n"
      "  }\n"
      "  for (int line : lines) {\n"
      "    sink_.Emit(line);\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(HasRule(LintFile("src/core/x.cc", text), "determinism-taint"));
}

// --- stale suppressions ------------------------------------------------------

TEST(LintCli, StaleSuppressionWarnsButExitsZeroByDefault) {
  const RunResult result =
      RunCli({FixturePath("stale_suppression_violation.cc")});
  EXPECT_EQ(result.exit_code, 0) << result.out << result.err;
  EXPECT_NE(result.out.find("[stale-suppression]"), std::string::npos)
      << result.out;
}

TEST(LintCli, StrictSuppressionsMakesStalePragmasFatal) {
  const RunResult result = RunCli(
      {"--strict-suppressions", FixturePath("stale_suppression_violation.cc")});
  EXPECT_EQ(result.exit_code, 1) << result.out << result.err;
}

TEST(LintRules, UsedPragmaIsNotStale) {
  const std::vector<Finding> findings = LintFile(
      "src/replay/x.cc",
      "// webcc-lint: allow(determinism-clock) — justified\n"
      "int Jitter() { return rand() % 10; }\n");
  EXPECT_FALSE(HasRule(findings, "stale-suppression"));
}

TEST(LintRules, PathExemptPragmaIsNotStale) {
  // thread_annotations.h keeps allow(raw-mutex) markers even though the
  // rule skips the file entirely; they document intent, not staleness.
  const std::vector<Finding> findings = LintFile(
      "src/util/thread_annotations.h",
      "// webcc-lint: allow(raw-mutex) — this header wraps the primitives\n"
      "#include <mutex>\n");
  EXPECT_FALSE(HasRule(findings, "stale-suppression"));
}

// --- output formats ----------------------------------------------------------

TEST(LintCli, JsonGoldenOutputForTaintFixture) {
  // Pins the machine-readable schema end to end: keys, order, severity,
  // pass and nested witness array.
  const std::string path = FixturePath("taint_violation.cc");
  const RunResult result = RunCli({"--json", path});
  EXPECT_EQ(result.exit_code, 1);
  const std::string expected =
      "{\"file\":\"" + path +
      "\",\"line\":15,\"rule\":\"determinism-taint\","
      "\"severity\":\"error\",\"pass\":\"determinism-taint\","
      "\"message\":\"'Emit(' emits values in hash-iteration order of "
      "'hits_'; collect into a vector and sort before emitting\","
      "\"witness\":[{\"file\":\"" +
      path +
      "\",\"line\":15,\"note\":\"sink called inside the iteration body\"},"
      "{\"file\":\"" +
      path +
      "\",\"line\":14,\"note\":\"unordered container 'hits_' iterated "
      "here\"}]}\n";
  EXPECT_EQ(result.out, expected);
}

TEST(LintOutput, JsonEscapesQuotesAndBackslashes) {
  // v1 wrote messages into JSON unescaped; a path (or message) with a
  // quote or backslash produced invalid JSON.
  const std::vector<Finding> findings =
      LintFile("src/replay/we\"ird\\dir/x.cc",
               "int Jitter() { return rand() % 10; }\n");
  ASSERT_FALSE(findings.empty());
  std::ostringstream out;
  WriteFindings(out, findings, /*json=*/true);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"file\":\"src/replay/we\\\"ird\\\\dir/x.cc\""),
            std::string::npos)
      << json;
  // Raw (unescaped) quote-in-string must not survive anywhere.
  EXPECT_EQ(json.find("we\"ird"), std::string::npos) << json;
}

}  // namespace
}  // namespace webcc::lint
