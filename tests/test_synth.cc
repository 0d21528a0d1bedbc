// Property tests for the trace synthesizer (ctest -L synth): generation is
// a pure function of the ScenarioConfig (same seed => byte-identical
// workload, any farm worker count => identical merged replay), the drawn
// workload matches the configured statistics (Zipf exponent, read/write
// ratio) within tolerance, the JSON dialect round-trips to a fixpoint, and
// the phase/locality/churn models have their intended observable effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_reader.h"
#include "replay/engine.h"
#include "replay/farm.h"
#include "synth/generate.h"
#include "synth/scenario.h"
#include "trace/summary.h"
#include "util/time.h"

namespace webcc::synth {
namespace {

ScenarioConfig BaseConfig() {
  ScenarioConfig config;
  config.name = "synth-prop";
  config.duration = 2 * kHour;
  config.requests = 20000;
  config.sites = 300;
  config.documents = 400;
  config.seed = 11;
  return config;
}

// --- determinism ---------------------------------------------------------------

TEST(SynthDeterminism, SameSeedIsByteIdentical) {
  ScenarioConfig config = BaseConfig();
  config.write_fraction = 0.2;
  config.locality = 0.4;
  config.churn_fraction = 0.3;

  const SynthWorkload a = Generate(config);
  const SynthWorkload b = Generate(config);

  EXPECT_TRUE(a.trace.Validate().empty()) << a.trace.Validate();
  ASSERT_EQ(a.trace.records.size(), b.trace.records.size());
  for (std::size_t i = 0; i < a.trace.records.size(); ++i) {
    ASSERT_EQ(a.trace.records[i].timestamp, b.trace.records[i].timestamp);
    ASSERT_EQ(a.trace.records[i].client, b.trace.records[i].client);
    ASSERT_EQ(a.trace.records[i].doc, b.trace.records[i].doc);
  }
  ASSERT_EQ(a.writes.size(), b.writes.size());
  EXPECT_EQ(WorkloadDigest(a), WorkloadDigest(b));
  EXPECT_TRUE(std::is_sorted(a.writes.begin(), a.writes.end(),
                             [](const trace::ModEvent& x,
                                const trace::ModEvent& y) {
                               return x.at < y.at;
                             }));
}

TEST(SynthDeterminism, SeedChangesTheWorkload) {
  ScenarioConfig config = BaseConfig();
  const std::uint64_t digest_a = WorkloadDigest(Generate(config));
  config.seed = 12;
  const std::uint64_t digest_b = WorkloadDigest(Generate(config));
  EXPECT_NE(digest_a, digest_b);
}

// A replay of a generated workload: its trace plus its whole write stream.
replay::ReplayConfig WorkloadReplay(const SynthWorkload& workload,
                                    core::Protocol protocol) {
  replay::ReplayConfig config;
  config.trace = &workload.trace;
  config.explicit_modifications = workload.writes;
  config.suppress_generated_modifications = true;
  config.protocol = protocol;
  return config;
}

// The farm's workers share one generated workload read-only; the merged
// JSONL trace and every metric must be invariant in the worker count.
TEST(SynthDeterminism, WorkerCountInvariantThroughFarm) {
  ScenarioConfig scenario = BaseConfig();
  scenario.requests = 1500;
  scenario.write_fraction = 0.15;
  Phase crowd;
  crowd.kind = PhaseKind::kFlashCrowd;
  crowd.start = 40 * kMinute;
  crowd.duration = 30 * kMinute;
  crowd.rate_multiplier = 5.0;
  crowd.focus = 0.8;
  crowd.hot_docs = 3;
  scenario.phases.push_back(crowd);

  const core::Protocol protocols[] = {core::Protocol::kAdaptiveTtl,
                                      core::Protocol::kInvalidation,
                                      core::Protocol::kPiggybackInvalidation};
  const SynthWorkload workload = Generate(scenario);
  std::vector<replay::ReplayConfig> configs;
  for (const core::Protocol protocol : protocols) {
    configs.push_back(WorkloadReplay(workload, protocol));
  }
  const auto run_with_workers = [&configs](unsigned workers) {
    std::ostringstream merged;
    std::pair<std::vector<replay::ReplayMetrics>, std::string> out;
    out.first = replay::RunAll(configs, workers, &merged);
    out.second = merged.str();
    return out;
  };

  const auto serial_a = run_with_workers(1);
  const auto serial_b = run_with_workers(1);
  const auto farmed = run_with_workers(8);

  ASSERT_FALSE(serial_a.second.empty());
  EXPECT_EQ(obs::DigestJsonl(serial_a.second), obs::DigestJsonl(serial_b.second));
  EXPECT_EQ(serial_a.second, farmed.second);
  ASSERT_EQ(serial_a.first.size(), std::size(protocols));
  for (std::size_t i = 0; i < serial_a.first.size(); ++i) {
    EXPECT_TRUE(replay::SameSimulation(serial_a.first[i], serial_b.first[i]))
        << "job " << i;
    EXPECT_TRUE(replay::SameSimulation(serial_a.first[i], farmed.first[i]))
        << "job " << i;
    EXPECT_GT(serial_a.first[i].requests_issued, 0u);
  }
}

// --- statistical calibration -----------------------------------------------------

// Least-squares slope of log(count) vs log(rank) over the top ranks; a
// Zipf(s) sample should fit close to -s.
double FittedZipfSlope(const std::vector<std::uint64_t>& sorted_counts,
                       std::size_t top) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  double n = 0;
  for (std::size_t rank = 0; rank < top && rank < sorted_counts.size();
       ++rank) {
    if (sorted_counts[rank] == 0) break;
    const double x = std::log(static_cast<double>(rank + 1));
    const double y = std::log(static_cast<double>(sorted_counts[rank]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    n += 1;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

TEST(SynthCalibration, EmpiricalDocZipfExponentWithinTolerance) {
  ScenarioConfig config = BaseConfig();
  config.requests = 60000;
  config.documents = 500;
  config.doc_zipf = 1.0;

  const SynthWorkload workload = Generate(config);
  std::vector<std::uint64_t> counts(config.documents, 0);
  for (const trace::TraceRecord& record : workload.trace.records) {
    ++counts[record.doc];
  }
  std::sort(counts.rbegin(), counts.rend());
  const double slope = FittedZipfSlope(counts, 30);
  EXPECT_NEAR(slope, -config.doc_zipf, 0.15)
      << "empirical popularity exponent drifted from the config";
}

TEST(SynthCalibration, EmpiricalSiteZipfExponentWithinTolerance) {
  ScenarioConfig config = BaseConfig();
  config.requests = 60000;
  config.sites = 500;
  config.site_zipf = 0.8;

  const SynthWorkload workload = Generate(config);
  std::vector<std::uint64_t> counts(config.sites, 0);
  for (const trace::TraceRecord& record : workload.trace.records) {
    ++counts[record.client];
  }
  std::sort(counts.rbegin(), counts.rend());
  const double slope = FittedZipfSlope(counts, 30);
  EXPECT_NEAR(slope, -config.site_zipf, 0.15)
      << "empirical site-activity exponent drifted from the config";
}

TEST(SynthCalibration, ReadWriteRatioMatchesConfig) {
  ScenarioConfig config = BaseConfig();
  config.write_fraction = 0.3;

  const SynthWorkload workload = Generate(config);
  const double writes = static_cast<double>(workload.writes.size());
  const double total =
      static_cast<double>(workload.trace.records.size()) + writes;
  EXPECT_NEAR(writes / total, config.write_fraction, 0.005);
}

// --- locality, phases, churn -----------------------------------------------------

// Fraction of requests whose document was already requested within the
// previous `window` requests (any client). The recency stack is global, so
// this is the metric the locality knob directly shapes.
double RecentReferenceFraction(const trace::Trace& trace, std::size_t window) {
  std::deque<std::uint32_t> recent;
  std::size_t hits = 0;
  for (const trace::TraceRecord& record : trace.records) {
    if (std::find(recent.begin(), recent.end(), record.doc) != recent.end()) {
      ++hits;
    }
    recent.push_back(record.doc);
    if (recent.size() > window) recent.pop_front();
  }
  return static_cast<double>(hits) /
         static_cast<double>(trace.records.size());
}

TEST(SynthModel, LocalityRaisesShortTermReReference) {
  ScenarioConfig config = BaseConfig();
  config.locality = 0.0;
  const double baseline =
      RecentReferenceFraction(Generate(config).trace, 100);
  config.locality = 0.7;
  const double local = RecentReferenceFraction(Generate(config).trace, 100);
  // Stack-distance re-references concentrate requests on globally recent
  // documents, raising the short-window re-reference mass well above the
  // popularity-only baseline.
  EXPECT_GT(local, baseline + 0.05);
}

TEST(SynthModel, FlashCrowdPhaseSpikesAndFocusesTraffic) {
  ScenarioConfig config = BaseConfig();
  config.requests = 30000;
  Phase crowd;
  crowd.kind = PhaseKind::kFlashCrowd;
  crowd.start = kHour;
  crowd.duration = 30 * kMinute;
  crowd.rate_multiplier = 8.0;
  crowd.focus = 0.9;
  crowd.hot_docs = 2;
  config.phases.push_back(crowd);

  const SynthWorkload workload = Generate(config);
  std::uint64_t in_window = 0;
  std::map<trace::DocId, std::uint64_t> window_docs;
  for (const trace::TraceRecord& record : workload.trace.records) {
    if (record.timestamp >= crowd.start &&
        record.timestamp < crowd.start + crowd.duration) {
      ++in_window;
      ++window_docs[record.doc];
    }
  }
  // The window is 1/4 of the trace at 8x rate: it must hold well over its
  // uniform share (8/11 of all requests in expectation).
  EXPECT_GT(in_window, workload.trace.records.size() / 2);
  // And the hot set dominates the window.
  std::vector<std::uint64_t> counts;
  counts.reserve(window_docs.size());
  for (const auto& [doc, count] : window_docs) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  const std::uint64_t hot = counts.size() > 1 ? counts[0] + counts[1]
                                              : counts.empty() ? 0 : counts[0];
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(in_window), 0.6);
}

TEST(SynthModel, WriteBurstPhaseConcentratesWrites) {
  ScenarioConfig config = BaseConfig();
  config.write_fraction = 0.25;
  Phase burst;
  burst.kind = PhaseKind::kWriteBurst;
  burst.start = kHour;
  burst.duration = 30 * kMinute;
  burst.write_multiplier = 10.0;
  config.phases.push_back(burst);

  const SynthWorkload workload = Generate(config);
  std::uint64_t in_window = 0;
  for (const trace::ModEvent& event : workload.writes) {
    if (event.at >= burst.start && event.at < burst.start + burst.duration) {
      ++in_window;
    }
  }
  // 1/4 of the duration at 10x write rate: most writes land in the burst.
  EXPECT_GT(in_window, workload.writes.size() / 2);
}

TEST(SynthModel, ChurnCreatesDocumentsMidTrace) {
  ScenarioConfig config = BaseConfig();
  config.documents = 200;
  config.write_fraction = 0.0;  // isolate the creation events
  config.churn_fraction = 0.5;

  const SynthWorkload workload = Generate(config);
  // With no write stream every ModEvent is a creation: about half the
  // documents, at most one each, all strictly inside the trace.
  EXPECT_GT(workload.writes.size(), config.documents / 4);
  EXPECT_LT(workload.writes.size(), config.documents);
  std::map<trace::DocId, int> per_doc;
  for (const trace::ModEvent& event : workload.writes) {
    EXPECT_GE(event.at, 0);
    EXPECT_LT(event.at, config.duration);
    EXPECT_EQ(++per_doc[event.doc], 1) << "document created twice";
  }
}

TEST(SynthModel, ReadOnlyScenarioStaysReadOnlyThroughReplay) {
  ScenarioConfig scenario = BaseConfig();
  scenario.requests = 800;
  scenario.write_fraction = 0.0;
  const SynthWorkload workload = Generate(scenario);
  ASSERT_TRUE(workload.writes.empty());
  const replay::ReplayMetrics metrics = replay::RunReplay(
      WorkloadReplay(workload, core::Protocol::kInvalidation));
  // Without the suppress flag the engine would fall back to the
  // mean-lifetime modifier process and invent writes.
  EXPECT_EQ(metrics.modifications_applied, 0u);
  EXPECT_GT(metrics.requests_issued, 0u);
}

TEST(SynthModel, MultiOriginPartitionsPaths) {
  ScenarioConfig config = BaseConfig();
  config.documents = 40;
  config.origins = 4;
  const SynthWorkload workload = Generate(config);
  std::map<std::string, int> prefixes;
  for (const trace::DocumentInfo& doc : workload.trace.documents) {
    ++prefixes[doc.path.substr(0, doc.path.find('/', 1))];
  }
  EXPECT_EQ(prefixes.size(), 4u);
  for (const auto& [prefix, count] : prefixes) EXPECT_EQ(count, 10);
}

// A million client sites generate (and stay resident) comfortably: all
// structures are O(sites + documents + requests), nothing per-(site, doc).
TEST(SynthModel, MillionSiteScenarioGeneratesInBoundedMemory) {
  ScenarioConfig config = BaseConfig();
  config.sites = 1000000;
  config.requests = 5000;
  config.documents = 2000;
  const SynthWorkload workload = Generate(config);
  EXPECT_EQ(workload.trace.clients.size(), 1000000u);
  EXPECT_EQ(workload.trace.records.size(), 5000u);
  EXPECT_TRUE(workload.trace.Validate().empty());
}

// --- JSON dialect ----------------------------------------------------------------

TEST(SynthJson, RoundTripsToFixpoint) {
  ScenarioConfig config = BaseConfig();
  config.origins = 4;
  config.write_fraction = 0.25;
  config.churn_fraction = 0.1;
  Phase diurnal;
  diurnal.kind = PhaseKind::kDiurnal;
  diurnal.amplitude = 0.8;
  diurnal.period = 2 * kHour;
  config.phases.push_back(diurnal);
  Phase crowd;
  crowd.kind = PhaseKind::kFlashCrowd;
  crowd.start = kHour;
  crowd.duration = 20 * kMinute;
  crowd.rate_multiplier = 4.0;
  crowd.focus = 0.75;
  crowd.hot_docs = 5;
  config.phases.push_back(crowd);

  const std::string first = ToJson(config);
  ScenarioConfig parsed;
  std::string error;
  ASSERT_TRUE(FromJson(first, parsed, error)) << error;
  EXPECT_EQ(ToJson(parsed), first);
  EXPECT_EQ(parsed.phases.size(), 2u);
  EXPECT_EQ(WorkloadDigest(Generate(parsed)), WorkloadDigest(Generate(config)));
}

TEST(SynthJson, RejectionsCarryActionableErrors) {
  ScenarioConfig parsed;
  std::string error;
  EXPECT_FALSE(FromJson("{\"bogus\": 1}", parsed, error));
  EXPECT_NE(error.find("unknown scenario key"), std::string::npos) << error;
  EXPECT_NE(error.find("at offset"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FromJson("{\"write_fraction\": 2.0}", parsed, error));
  EXPECT_NE(error.find("write_fraction"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FromJson("{\"duration_s\": 1e999}", parsed, error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(FromJson("{\"sites\": 999999999}", parsed, error));
  EXPECT_NE(error.find("sites"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(FromJson("{} trailing", parsed, error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(SynthJson, ValidateCatchesHandBuiltMistakes) {
  ScenarioConfig config = BaseConfig();
  config.origins = config.documents + 1;
  EXPECT_FALSE(Validate(config).empty());
  config = BaseConfig();
  config.min_size_bytes = 1 << 20;
  config.max_size_bytes = 1024;
  EXPECT_FALSE(Validate(config).empty());
  config = BaseConfig();
  Phase phase;
  phase.start = config.duration + kMinute;
  config.phases.push_back(phase);
  EXPECT_FALSE(Validate(config).empty());
  EXPECT_TRUE(Validate(BaseConfig()).empty());
}

TEST(SynthJson, ScenarioFileCarriesExpectBlock) {
  const std::string text =
      "{\"name\": \"g\", \"requests\": 100,\n"
      " \"expect\": {\"workload_digest\": 123, \"note\": \"text\"}}";
  ScenarioFile file;
  std::string error;
  ASSERT_TRUE(ParseScenarioFile(text, file, error)) << error;
  EXPECT_EQ(file.config.requests, 100u);
  ASSERT_EQ(file.expect.size(), 2u);
  EXPECT_EQ(file.expect.at("workload_digest"), "123");
  EXPECT_EQ(file.expect.at("note"), "text");
}

}  // namespace
}  // namespace webcc::synth
