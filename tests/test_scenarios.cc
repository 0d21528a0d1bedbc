// Golden scenario corpus (ctest -L scenario): every scenario under
// tests/data/scenarios/ is regenerated from its JSON and replayed across all
// five protocols under one fixed replay configuration; the files pin the
// workload digest plus per-protocol metrics and trace digests, so synthetic
// scenarios regress exactly the way fault plans do. On mismatch the failure
// prints the full actual "expect" block to paste into the JSON.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "replay/farm.h"
#include "synth/generate.h"
#include "synth/scenario.h"

namespace webcc::synth {
namespace {

using core::Protocol;

constexpr Protocol kAllProtocols[] = {
    Protocol::kAdaptiveTtl, Protocol::kPollEveryTime, Protocol::kInvalidation,
    Protocol::kPiggybackValidation, Protocol::kPiggybackInvalidation};

const char* Token(Protocol protocol) {
  switch (protocol) {
    case Protocol::kAdaptiveTtl:
      return "ttl";
    case Protocol::kPollEveryTime:
      return "poll";
    case Protocol::kInvalidation:
      return "invalidation";
    case Protocol::kPiggybackValidation:
      return "pcv";
    case Protocol::kPiggybackInvalidation:
      return "psi";
  }
  return "unknown";
}

// A generated scenario replays as its trace plus its whole write stream.
replay::ReplayConfig GoldenReplayConfig(const SynthWorkload& workload,
                                        Protocol protocol) {
  replay::ReplayConfig config;
  config.trace = &workload.trace;
  config.explicit_modifications = workload.writes;
  config.suppress_generated_modifications = true;
  config.protocol = protocol;
  return config;
}

// One fixed configuration for the whole corpus, mirroring the fault golden
// harness: regeneration is mechanical because nothing varies but the file.
std::map<std::string, std::string> RunGoldenScenario(
    const ScenarioConfig& scenario) {
  std::map<std::string, std::string> actual;
  const auto put = [&actual](const std::string& name, std::uint64_t value) {
    actual[name] = std::to_string(value);
  };
  const SynthWorkload workload = Generate(scenario);
  put("workload_digest", WorkloadDigest(workload));
  for (const Protocol protocol : kAllProtocols) {
    obs::BufferTraceSink sink;
    replay::ReplayConfig config = GoldenReplayConfig(workload, protocol);
    config.trace_sink = &sink;
    const replay::ReplayMetrics metrics = replay::RunReplay(config);
    const std::string prefix = Token(protocol);
    put(prefix + ".requests_issued", metrics.requests_issued);
    put(prefix + ".cache_hits", metrics.cache_hits());
    put(prefix + ".stale_serves", metrics.stale_serves);
    put(prefix + ".strong_violations", metrics.strong_violations);
    put(prefix + ".modifications_applied", metrics.modifications_applied);
    put(prefix + ".trace_digest", obs::DigestJsonl(sink.Text()));
  }
  return actual;
}

std::string FormatExpectBlock(const std::map<std::string, std::string>& m) {
  std::string out = "  \"expect\": {\n";
  for (auto it = m.begin(); it != m.end(); ++it) {
    out += "    \"" + it->first + "\": " + it->second;
    out += std::next(it) == m.end() ? "\n" : ",\n";
  }
  out += "  }";
  return out;
}

std::filesystem::path ScenarioDir() {
  return std::filesystem::path(WEBCC_TEST_DATA_DIR) / "scenarios";
}

ScenarioFile LoadScenario(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  ScenarioFile file;
  std::string error;
  EXPECT_TRUE(ParseScenarioFile(text.str(), file, error))
      << path << ": " << error;
  return file;
}

TEST(ScenarioGoldenCorpus, ScenariosReproduceExpectedMetricsAndDigests) {
  ASSERT_TRUE(std::filesystem::is_directory(ScenarioDir())) << ScenarioDir();

  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(ScenarioDir())) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    SCOPED_TRACE(entry.path().filename().string());

    const ScenarioFile file = LoadScenario(entry.path());
    ASSERT_FALSE(file.expect.empty())
        << "golden scenario has no expect block to check";

    const std::map<std::string, std::string> actual =
        RunGoldenScenario(file.config);
    for (const auto& [name, expected] : file.expect) {
      const auto found = actual.find(name);
      ASSERT_NE(found, actual.end()) << "unknown expect metric: " << name;
      EXPECT_EQ(found->second, expected)
          << name << " drifted; full actual block:\n"
          << FormatExpectBlock(actual);
    }
  }
  // The corpus itself is under test: losing the files is a failure.
  EXPECT_GE(files, 4);
}

// The headline consistency claim on the headline scenario: a flash crowd
// hammering a hot document *while it is being modified* must never produce
// a post-write-completion stale serve under the strong protocols.
TEST(ScenarioGoldenCorpus, FlashCrowdMidWriteKeepsStrongConsistency) {
  const ScenarioFile file =
      LoadScenario(ScenarioDir() / "flash_crowd_mid_write.json");
  ASSERT_GT(file.config.write_fraction, 0.0);
  const SynthWorkload workload = Generate(file.config);
  for (const Protocol protocol :
       {Protocol::kPollEveryTime, Protocol::kInvalidation}) {
    const replay::ReplayMetrics metrics =
        replay::RunReplay(GoldenReplayConfig(workload, protocol));
    EXPECT_EQ(metrics.strong_violations, 0u) << Token(protocol);
    EXPECT_GT(metrics.modifications_applied, 0u) << Token(protocol);
    // Strong protocols may serve stale only while the write is in flight.
    EXPECT_EQ(metrics.stale_serves, metrics.stale_while_invalidation_in_flight)
        << Token(protocol);
  }
}

// Whole-corpus worker invariance: every scenario x every protocol run
// through a 1-worker and an 8-worker farm streams the identical bytes —
// each scenario is generated once and its workload shared read-only.
TEST(ScenarioGoldenCorpus, CorpusDigestsInvariantAcrossFarmWorkerCounts) {
  std::vector<SynthWorkload> workloads;
  for (const auto& entry : std::filesystem::directory_iterator(ScenarioDir())) {
    if (entry.path().extension() != ".json") continue;
    workloads.push_back(Generate(LoadScenario(entry.path()).config));
  }
  ASSERT_GE(workloads.size(), 4u);
  std::vector<replay::ReplayConfig> configs;
  for (const SynthWorkload& workload : workloads) {
    for (const Protocol protocol : kAllProtocols) {
      configs.push_back(GoldenReplayConfig(workload, protocol));
    }
  }

  const auto run_with_workers = [&configs](unsigned workers) {
    std::ostringstream merged;
    replay::RunAll(configs, workers, &merged);
    return merged.str();
  };

  const std::string serial = run_with_workers(1);
  const std::string farmed = run_with_workers(8);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(obs::DigestJsonl(serial), obs::DigestJsonl(farmed));
  EXPECT_EQ(serial, farmed);
}

}  // namespace
}  // namespace webcc::synth
