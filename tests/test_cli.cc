// Tests for the webcc command-line tool: flag parsing and the subcommands
// (driven through streams and temp files, no subprocesses).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "cli/flags.h"
#include "synth/scenario.h"

namespace webcc::cli {
namespace {

Flags MakeFlags(std::vector<const char*> args) {
  args.insert(args.begin(), "webcc");
  std::string error;
  const auto flags =
      Flags::Parse(static_cast<int>(args.size()), args.data(), &error);
  EXPECT_TRUE(flags.has_value()) << error;
  return *flags;
}

// --- flag parsing --------------------------------------------------------------

TEST(Flags, PositionalThenFlags) {
  const Flags flags = MakeFlags({"replay", "--in", "x.log", "--two-tier"});
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "replay");
  EXPECT_EQ(flags.GetString("in", ""), "x.log");
  EXPECT_TRUE(flags.GetBool("two-tier"));
  EXPECT_FALSE(flags.GetBool("multicast"));
}

TEST(Flags, EqualsSyntax) {
  const Flags flags = MakeFlags({"generate", "--requests=500", "--zipf=0.9"});
  EXPECT_EQ(flags.GetInt("requests", 0), 500);
  EXPECT_DOUBLE_EQ(*flags.GetDouble("zipf", 0), 0.9);
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags flags = MakeFlags({"generate"});
  EXPECT_EQ(flags.GetInt("requests", 123), 123);
  EXPECT_EQ(flags.GetString("out", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(*flags.GetDouble("zipf", 1.5), 1.5);
}

TEST(Flags, UnparseableValueIsNullopt) {
  const Flags flags = MakeFlags({"g", "--requests", "abc", "--zipf", "x"});
  EXPECT_FALSE(flags.GetInt("requests", 0).has_value());
  EXPECT_FALSE(flags.GetDouble("zipf", 0).has_value());
}

TEST(Flags, SwitchBeforeAnotherFlag) {
  const Flags flags = MakeFlags({"replay", "--two-tier", "--multicast"});
  EXPECT_TRUE(flags.GetBool("two-tier"));
  EXPECT_TRUE(flags.GetBool("multicast"));
}

TEST(Flags, NegativeNumbersAsValues) {
  const Flags flags = MakeFlags({"x", "--seed=-5"});
  EXPECT_EQ(flags.GetInt("seed", 0), -5);
}

TEST(Flags, RejectsTripleDash) {
  const char* args[] = {"webcc", "cmd", "---bad"};
  std::string error;
  EXPECT_FALSE(Flags::Parse(3, args, &error).has_value());
  EXPECT_NE(error.find("---bad"), std::string::npos);
}

TEST(Flags, UnusedFlagsReported) {
  const Flags flags = MakeFlags({"cmd", "--used", "1", "--typo", "2"});
  (void)flags.GetInt("used", 0);
  const auto unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// --- ParseProtocol ---------------------------------------------------------------

TEST(ParseProtocol, AllNamesAndAliases) {
  EXPECT_EQ(ParseProtocol("ttl"), core::Protocol::kAdaptiveTtl);
  EXPECT_EQ(ParseProtocol("adaptive-ttl"), core::Protocol::kAdaptiveTtl);
  EXPECT_EQ(ParseProtocol("poll"), core::Protocol::kPollEveryTime);
  EXPECT_EQ(ParseProtocol("polling"), core::Protocol::kPollEveryTime);
  EXPECT_EQ(ParseProtocol("invalidation"), core::Protocol::kInvalidation);
  EXPECT_EQ(ParseProtocol("inv"), core::Protocol::kInvalidation);
  EXPECT_EQ(ParseProtocol("pcv"), core::Protocol::kPiggybackValidation);
  EXPECT_EQ(ParseProtocol("psi"), core::Protocol::kPiggybackInvalidation);
  EXPECT_FALSE(ParseProtocol("nfs").has_value());
}

TEST(ParseProtocol, RoundTripsThroughToString) {
  constexpr core::Protocol kAll[] = {
      core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
      core::Protocol::kInvalidation, core::Protocol::kPiggybackValidation,
      core::Protocol::kPiggybackInvalidation};
  for (const core::Protocol protocol : kAll) {
    EXPECT_EQ(ParseProtocol(core::ToString(protocol)), protocol)
        << core::ToString(protocol);
  }
}

TEST(ParseLeaseMode, AllNamesAndAliases) {
  EXPECT_EQ(ParseLeaseMode("none"), core::LeaseMode::kNone);
  EXPECT_EQ(ParseLeaseMode("fixed"), core::LeaseMode::kFixed);
  EXPECT_EQ(ParseLeaseMode("two-tier"), core::LeaseMode::kTwoTier);
  EXPECT_EQ(ParseLeaseMode("twotier"), core::LeaseMode::kTwoTier);
  EXPECT_EQ(ParseLeaseMode("two_tier"), core::LeaseMode::kTwoTier);
  EXPECT_FALSE(ParseLeaseMode("volume").has_value());
  EXPECT_FALSE(ParseLeaseMode("").has_value());
}

TEST(ParseLeaseMode, RoundTripsThroughToString) {
  constexpr core::LeaseMode kAll[] = {
      core::LeaseMode::kNone, core::LeaseMode::kFixed,
      core::LeaseMode::kTwoTier};
  for (const core::LeaseMode mode : kAll) {
    EXPECT_EQ(ParseLeaseMode(core::ToString(mode)), mode)
        << core::ToString(mode);
  }
}

// --- commands ----------------------------------------------------------------------

class CliCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char name[] = "/tmp/webcc_cli_XXXXXX";
    const int fd = mkstemp(name);
    ASSERT_GE(fd, 0);
    close(fd);
    path_ = name;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  int Run(std::vector<const char*> args) {
    out_.str("");
    err_.str("");
    return RunCli(MakeFlags(std::move(args)), out_, err_);
  }

  // Replays a generated 200-request trace with the invalidation protocol
  // under the fault plan `plan_json`, written to PlanPath(); returns the
  // exit code.
  int ReplayUnderFaultPlan(const std::string& plan_json) {
    const int generated = Run({"generate", "--requests", "200",
                               "--documents", "20", "--out", path_.c_str()});
    if (generated != 0) return generated;
    const std::string plan_path = PlanPath();
    {
      std::ofstream plan(plan_path);
      plan << plan_json;
    }
    const int code = Run({"replay", "--in", path_.c_str(), "--protocol",
                          "invalidation", "--fault-plan", plan_path.c_str()});
    std::remove(plan_path.c_str());
    return code;
  }
  std::string PlanPath() const { return path_ + ".plan.json"; }

  std::string path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliCommandTest, NoCommandPrintsUsage) {
  EXPECT_NE(Run({}), 0);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliCommandTest, UnknownCommandFails) {
  EXPECT_NE(Run({"frobnicate"}), 0);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliCommandTest, HelpSucceeds) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("generate"), std::string::npos);
}

TEST_F(CliCommandTest, ProtocolsListsAllFive) {
  EXPECT_EQ(Run({"protocols"}), 0);
  EXPECT_NE(out_.str().find("Invalidation"), std::string::npos);
  EXPECT_NE(out_.str().find("PCV"), std::string::npos);
  EXPECT_NE(out_.str().find("PSI"), std::string::npos);
}

TEST_F(CliCommandTest, GenerateWritesClf) {
  ASSERT_EQ(Run({"generate", "--requests", "300", "--documents", "40",
                 "--clients", "20", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  std::ifstream in(path_);
  std::string line;
  std::string last_line;
  int lines = 0;
  while (std::getline(in, line)) {
    last_line = line;
    ++lines;
  }
  EXPECT_EQ(lines, 300);
  EXPECT_NE(last_line.find("GET"), std::string::npos);
}

TEST_F(CliCommandTest, GenerateToStdout) {
  ASSERT_EQ(Run({"generate", "--requests", "5", "--documents", "3",
                 "--clients", "2", "--duration-hours", "1"}),
            0);
  EXPECT_NE(out_.str().find("HTTP/1.0"), std::string::npos);
}

TEST_F(CliCommandTest, GenerateRejectsBadCounts) {
  EXPECT_NE(Run({"generate", "--requests", "0"}), 0);
  EXPECT_NE(Run({"generate", "--requests", "abc"}), 0);
}

TEST_F(CliCommandTest, GenerateRejectsUnknownPreset) {
  EXPECT_NE(Run({"generate", "--preset", "MIT"}), 0);
  EXPECT_NE(err_.str().find("unknown preset"), std::string::npos);
}

TEST_F(CliCommandTest, GenerateRejectsTypoFlags) {
  EXPECT_NE(Run({"generate", "--requets", "100"}), 0);
  EXPECT_NE(err_.str().find("--requets"), std::string::npos);
}

TEST_F(CliCommandTest, SummarizeRoundTrip) {
  ASSERT_EQ(Run({"generate", "--requests", "400", "--documents", "50",
                 "--clients", "25", "--duration-hours", "2", "--out",
                 path_.c_str()}),
            0);
  ASSERT_EQ(Run({"summarize", "--in", path_.c_str()}), 0);
  EXPECT_NE(out_.str().find("400"), std::string::npos);
  EXPECT_NE(out_.str().find("Repeat-request fraction"), std::string::npos);
}

TEST_F(CliCommandTest, SummarizeMissingFileFails) {
  EXPECT_NE(Run({"summarize", "--in", "/nonexistent/x.log"}), 0);
}

TEST_F(CliCommandTest, SummarizeNeedsInput) {
  EXPECT_NE(Run({"summarize"}), 0);
  EXPECT_NE(err_.str().find("--preset NAME or --in FILE"), std::string::npos);
}

TEST_F(CliCommandTest, FilterAbsorbsRepeats) {
  ASSERT_EQ(Run({"generate", "--requests", "500", "--documents", "20",
                 "--clients", "10", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  ASSERT_EQ(Run({"filter", "--in", path_.c_str(), "--browser-ttl-minutes",
                 "120"}),
            0);
  EXPECT_NE(err_.str().find("absorbed"), std::string::npos);
  // The filtered CLF goes to stdout and is strictly smaller.
  int lines = 0;
  std::istringstream filtered(out_.str());
  std::string line;
  while (std::getline(filtered, line)) ++lines;
  EXPECT_GT(lines, 0);
  EXPECT_LT(lines, 500);
}

TEST_F(CliCommandTest, ReplaySingleProtocol) {
  ASSERT_EQ(Run({"generate", "--requests", "400", "--documents", "50",
                 "--clients", "25", "--duration-hours", "2", "--out",
                 path_.c_str()}),
            0);
  ASSERT_EQ(Run({"replay", "--in", path_.c_str(), "--protocol",
                 "invalidation", "--lifetime-days", "1"}),
            0);
  EXPECT_NE(out_.str().find("Invalidation"), std::string::npos);
  EXPECT_NE(out_.str().find("site lists"), std::string::npos);
  EXPECT_NE(out_.str().find("violations=0"), std::string::npos);
}

TEST_F(CliCommandTest, ReplayAllRunsThree) {
  ASSERT_EQ(Run({"generate", "--requests", "300", "--documents", "40",
                 "--clients", "20", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  ASSERT_EQ(Run({"replay", "--in", path_.c_str(), "--lifetime-days", "2"}),
            0);
  EXPECT_NE(out_.str().find("Adaptive TTL"), std::string::npos);
  EXPECT_NE(out_.str().find("Poll-Every-Time"), std::string::npos);
  EXPECT_NE(out_.str().find("Invalidation"), std::string::npos);
}

TEST_F(CliCommandTest, ReplayTwoTierLease) {
  ASSERT_EQ(Run({"generate", "--requests", "300", "--documents", "40",
                 "--clients", "20", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  ASSERT_EQ(Run({"replay", "--in", path_.c_str(), "--protocol",
                 "invalidation", "--two-tier", "--lifetime-days", "1"}),
            0);
}

TEST_F(CliCommandTest, ReplayRejectsUnknownProtocol) {
  ASSERT_EQ(Run({"generate", "--requests", "100", "--documents", "10",
                 "--clients", "5", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  EXPECT_NE(Run({"replay", "--in", path_.c_str(), "--protocol", "afs"}), 0);
  // The error must teach the valid spellings.
  for (const char* token : {"ttl", "poll", "invalidation", "pcv", "psi"}) {
    EXPECT_NE(err_.str().find(token), std::string::npos) << err_.str();
  }
}

TEST_F(CliCommandTest, ReplayLeaseFlagSelectsMode) {
  ASSERT_EQ(Run({"generate", "--requests", "300", "--documents", "40",
                 "--clients", "20", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  ASSERT_EQ(Run({"replay", "--in", path_.c_str(), "--protocol",
                 "invalidation", "--lease", "two-tier", "--lifetime-days",
                 "1"}),
            0);
  ASSERT_EQ(Run({"replay", "--in", path_.c_str(), "--protocol",
                 "invalidation", "--lease", "fixed", "--lease-days", "1",
                 "--lifetime-days", "1"}),
            0);
  ASSERT_EQ(Run({"replay", "--in", path_.c_str(), "--protocol",
                 "invalidation", "--lease", "none", "--lifetime-days", "1"}),
            0);
}

TEST_F(CliCommandTest, ReplayRejectsUnknownLease) {
  ASSERT_EQ(Run({"generate", "--requests", "100", "--documents", "10",
                 "--clients", "5", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  EXPECT_NE(Run({"replay", "--in", path_.c_str(), "--lease", "volume"}), 0);
  for (const char* token : {"none", "fixed", "two-tier"}) {
    EXPECT_NE(err_.str().find(token), std::string::npos) << err_.str();
  }
}

TEST_F(CliCommandTest, ReplayRejectsLeaseFlagPlusTwoTierSwitch) {
  ASSERT_EQ(Run({"generate", "--requests", "100", "--documents", "10",
                 "--clients", "5", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  EXPECT_NE(
      Run({"replay", "--in", path_.c_str(), "--lease", "fixed", "--two-tier"}),
      0);
  EXPECT_NE(err_.str().find("mutually exclusive"), std::string::npos);
}

TEST_F(CliCommandTest, ReplayRejectsPresetAndInTogether) {
  EXPECT_NE(Run({"replay", "--preset", "EPA", "--in", path_.c_str()}), 0);
  EXPECT_NE(err_.str().find("mutually exclusive"), std::string::npos);
}

TEST_F(CliCommandTest, ReplayTraceOutThenSummarize) {
  ASSERT_EQ(Run({"generate", "--requests", "400", "--documents", "50",
                 "--clients", "25", "--duration-hours", "2", "--out",
                 path_.c_str()}),
            0);
  const std::string trace_path = path_ + ".jsonl";
  ASSERT_EQ(Run({"replay", "--in", path_.c_str(), "--protocol",
                 "invalidation", "--lifetime-days", "1", "--trace-out",
                 trace_path.c_str()}),
            0);
  // The stream summarizes clean (exit 0 == no malformed lines, every
  // referenced id interned) and the counts show the protocol ran.
  EXPECT_EQ(Run({"trace", "summarize", "--in", trace_path.c_str()}), 0);
  EXPECT_NE(out_.str().find("runs:      1"), std::string::npos);
  EXPECT_NE(out_.str().find("get_sent"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST_F(CliCommandTest, ReplayMetricsOutMergesProtocols) {
  ASSERT_EQ(Run({"generate", "--requests", "300", "--documents", "40",
                 "--clients", "20", "--duration-hours", "1", "--out",
                 path_.c_str()}),
            0);
  const std::string metrics_path = path_ + ".json";
  // No --protocol: all three run, so the dump is prefixed per protocol.
  ASSERT_EQ(Run({"replay", "--in", path_.c_str(), "--lifetime-days", "2",
                 "--metrics-out", metrics_path.c_str()}),
            0);
  std::ifstream in(metrics_path);
  std::stringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"ttl.replay.requests_issued\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"poll.replay.requests_issued\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"invalidation.replay.requests_issued\""),
            std::string::npos);
  std::remove(metrics_path.c_str());
}

TEST_F(CliCommandTest, TraceSummarizeFlagsBadStreams) {
  {
    std::ofstream bad(path_);
    bad << "{\"t\":0,\"e\":\"run_begin\"}\n"
        << "not json at all\n";
  }
  EXPECT_NE(Run({"trace", "summarize", "--in", path_.c_str()}), 0);
}

TEST_F(CliCommandTest, TraceRequiresSummarizeVerb) {
  EXPECT_NE(Run({"trace"}), 0);
  EXPECT_NE(Run({"trace", "frobnicate", "--in", path_.c_str()}), 0);
}

// --- synth + actionable input errors ------------------------------------------------

TEST_F(CliCommandTest, ReplayUnreadableTraceExplainsAndHints) {
  EXPECT_NE(Run({"replay", "--in", "/nonexistent/trace.log"}), 0);
  EXPECT_NE(err_.str().find("error: /nonexistent/trace.log: cannot open"),
            std::string::npos)
      << err_.str();
  EXPECT_NE(err_.str().find("hint: "), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("--preset NAME"), std::string::npos)
      << err_.str();
}

TEST_F(CliCommandTest, ReplayScenarioParseErrorPointsAtOffset) {
  {
    std::ofstream bad(path_);
    bad << "{\"sites\": 999999999}";
  }
  EXPECT_NE(Run({"replay", "--scenario", path_.c_str()}), 0);
  EXPECT_NE(err_.str().find("sites out of range"), std::string::npos)
      << err_.str();
  EXPECT_NE(err_.str().find("at offset"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("hint: "), std::string::npos) << err_.str();
}

TEST_F(CliCommandTest, ReplayFaultPlanTargetNamingNoPseudoClientExitsTwo) {
  // The plan parses (7 is an integer from -1 up), but the replay runs four
  // pseudo-clients: an input error, not an abort inside the engine.
  EXPECT_EQ(ReplayUnderFaultPlan(
                "{\"events\": [{\"kind\": \"proxy_crash\", \"at_s\": 60,"
                " \"target\": 7, \"duration_s\": 60}]}"),
            2);
  EXPECT_NE(err_.str().find("error: " + PlanPath() +
                            ": proxy_crash target 7 names no pseudo-client"),
            std::string::npos)
      << err_.str();
  EXPECT_NE(err_.str().find("hint: "), std::string::npos) << err_.str();
}

TEST_F(CliCommandTest, ReplayFaultPlanTargetBeyondIntRangeExitsTwo) {
  // 1e12 is an integer, but no int holds it: rejected while parsing, before
  // any conversion.
  EXPECT_EQ(ReplayUnderFaultPlan(
                "{\"events\": [{\"kind\": \"proxy_crash\", \"at_s\": 600,"
                " \"target\": 1e12, \"duration_s\": 120}]}"),
            2);
  EXPECT_NE(err_.str().find("error: " + PlanPath() +
                            ": target out of range at offset "),
            std::string::npos)
      << err_.str();
  EXPECT_TRUE(out_.str().empty()) << out_.str();
}

TEST_F(CliCommandTest, ReplayFaultPlanNegativePartitionTimesExitTwo) {
  // A negative duration would heal the partition before its onset and
  // leave every request to the timeout.
  EXPECT_EQ(ReplayUnderFaultPlan(
                "{\"events\": [{\"kind\": \"partition\", \"at_s\": -5,"
                " \"target\": -1, \"duration_s\": -60}]}"),
            2);
  EXPECT_NE(err_.str().find("error: " + PlanPath() +
                            ": at_s out of range at offset "),
            std::string::npos)
      << err_.str();
  EXPECT_TRUE(out_.str().empty()) << out_.str();
}

TEST_F(CliCommandTest, ReplayFaultPlanLinkProbabilitiesOutsideUnitExitTwo) {
  EXPECT_EQ(ReplayUnderFaultPlan(
                "{\"events\": [{\"kind\": \"link_fault\", \"at_s\": 60,"
                " \"target\": -1, \"duration_s\": 600, \"drop\": 5.0,"
                " \"duplicate\": -1}]}"),
            2);
  EXPECT_NE(err_.str().find("error: " + PlanPath() +
                            ": drop out of range at offset "),
            std::string::npos)
      << err_.str();
  EXPECT_TRUE(out_.str().empty()) << out_.str();
}

TEST_F(CliCommandTest, ReplayRejectsScenarioPlusPreset) {
  EXPECT_NE(Run({"replay", "--scenario", path_.c_str(), "--preset", "EPA"}),
            0);
  EXPECT_NE(err_.str().find("mutually exclusive"), std::string::npos)
      << err_.str();
}

TEST_F(CliCommandTest, SynthDigestIsDeterministic) {
  ASSERT_EQ(Run({"synth", "--sites", "200", "--documents", "100",
                 "--requests", "500", "--seed", "7", "--digest"}),
            0);
  const std::string first = out_.str();
  ASSERT_NE(first.find("workload_digest "), std::string::npos) << first;
  ASSERT_EQ(Run({"synth", "--sites", "200", "--documents", "100",
                 "--requests", "500", "--seed", "7", "--digest"}),
            0);
  EXPECT_EQ(out_.str(), first);
  ASSERT_EQ(Run({"synth", "--sites", "200", "--documents", "100",
                 "--requests", "500", "--seed", "8", "--digest"}),
            0);
  EXPECT_NE(out_.str(), first) << "seed must change the workload digest";
}

TEST_F(CliCommandTest, SynthRejectsBadFlagRanges) {
  EXPECT_NE(Run({"synth", "--sites", "0"}), 0);
  EXPECT_NE(err_.str().find("sites"), std::string::npos) << err_.str();
  EXPECT_NE(Run({"synth", "--write-fraction", "0.95"}), 0);
  EXPECT_NE(err_.str().find("write_fraction"), std::string::npos)
      << err_.str();
  EXPECT_NE(Run({"synth", "--locality", "1.5"}), 0);
}

TEST_F(CliCommandTest, SynthPrintConfigRoundTrips) {
  ASSERT_EQ(Run({"synth", "--sites", "300", "--documents", "120",
                 "--requests", "400", "--write-fraction", "0.2",
                 "--print-config"}),
            0);
  const std::string json = out_.str();
  synth::ScenarioConfig config;
  std::string error;
  ASSERT_TRUE(synth::FromJson(json, config, error)) << error;
  EXPECT_EQ(config.sites, 300u);
  EXPECT_EQ(synth::ToJson(config), json)
      << "--print-config must emit canonical JSON";
}

TEST_F(CliCommandTest, SynthScenarioFileReplayPrintsDigest) {
  {
    std::ofstream scenario(path_);
    scenario << "{\"name\": \"cli-smoke\", \"duration_s\": 600.000000, "
                "\"requests\": 300, \"sites\": 50, \"documents\": 40, "
                "\"write_fraction\": 0.100000, \"seed\": 5}";
  }
  ASSERT_EQ(Run({"synth", "--scenario", path_.c_str(), "--replay",
                 "--protocol", "invalidation"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("Invalidation"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("trace_digest "), std::string::npos)
      << out_.str();
}

TEST_F(CliCommandTest, SynthUnreadableScenarioExplains) {
  EXPECT_NE(Run({"synth", "--scenario", "/nonexistent/s.json"}), 0);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("hint: "), std::string::npos) << err_.str();
}

}  // namespace
}  // namespace webcc::cli
