// Tests for the experiment presets (the table-row specs driving the bench
// binaries) and for the metrics summary plumbing.
#include <gtest/gtest.h>

#include <unordered_set>

#include "replay/engine.h"
#include "replay/experiments.h"
#include "replay/farm.h"
#include "trace/presets.h"
#include "trace/workload.h"

namespace webcc::replay {
namespace {

TEST(Experiments, TableThreeHasThePaperRows) {
  const auto specs = Table3Experiments();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].id, "EPA");
  EXPECT_EQ(specs[0].mean_lifetime, 50 * kDay);
  EXPECT_EQ(specs[1].id, "SASK");
  EXPECT_EQ(specs[1].mean_lifetime, 14 * kDay);
  EXPECT_EQ(specs[2].id, "ClarkNet");
  EXPECT_EQ(specs[2].mean_lifetime, 50 * kDay);
}

TEST(Experiments, TableFourHasThePaperRows) {
  const auto specs = Table4Experiments();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].id, "NASA");
  EXPECT_EQ(specs[0].mean_lifetime, 7 * kDay);
  EXPECT_EQ(specs[1].id, "SDSC(57)");
  EXPECT_EQ(specs[1].mean_lifetime, 25 * kDay);
  EXPECT_EQ(specs[2].id, "SDSC(576)");
  EXPECT_EQ(specs[2].mean_lifetime, Time(2.5 * kDay));
}

TEST(Experiments, AllSixRowsUniqueIds) {
  const auto specs = AllTableExperiments();
  ASSERT_EQ(specs.size(), 6u);
  std::unordered_set<std::string> ids;
  for (const ExperimentSpec& spec : specs) {
    EXPECT_TRUE(ids.insert(spec.id).second) << spec.id;
  }
}

TEST(Experiments, PaperCpuColumnsPresent) {
  for (const ExperimentSpec& spec : AllTableExperiments()) {
    for (double cpu : spec.paper.cpu_percent) {
      EXPECT_GT(cpu, 0.0) << spec.id;
      EXPECT_LT(cpu, 100.0) << spec.id;
    }
  }
}

TEST(Experiments, ConfigBindsTraceAndLifetime) {
  const auto spec = Table3Experiments()[0];
  const auto preset = trace::GetPreset(spec.trace);
  trace::WorkloadConfig small = preset.workload;
  small.total_requests = 100;  // cheap stand-in; binding is what's tested
  small.duration = kHour;
  const trace::Trace trace = trace::GenerateTrace(small);
  const ReplayConfig config =
      MakeReplayConfig(spec, core::Protocol::kInvalidation, trace);
  EXPECT_EQ(config.trace, &trace);
  EXPECT_EQ(config.mean_lifetime, spec.mean_lifetime);
  EXPECT_EQ(config.protocol, core::Protocol::kInvalidation);
  EXPECT_EQ(config.proxy_cache_bytes, spec.proxy_cache_bytes);
}

TEST(Experiments, ModifierSeedSharedAcrossProtocolsOfARow) {
  const auto spec = Table3Experiments()[1];
  const trace::Trace trace;  // unused for this check
  const ReplayConfig a =
      MakeReplayConfig(spec, core::Protocol::kAdaptiveTtl, trace);
  const ReplayConfig b =
      MakeReplayConfig(spec, core::Protocol::kInvalidation, trace);
  EXPECT_EQ(a.modifier_seed, b.modifier_seed);
  EXPECT_EQ(a.seed, b.seed);
}

TEST(Experiments, ScaledDownRowRunsEndToEnd) {
  // A miniature version of the EPA row (1% of the trace) exercises the full
  // spec -> config -> replay pipeline inside test budgets.
  const auto spec = Table3Experiments()[0];
  const auto preset = trace::GetPreset(spec.trace);
  trace::WorkloadConfig small = preset.workload;
  small.total_requests /= 50;
  small.num_documents /= 10;
  small.num_clients /= 10;
  const trace::Trace trace = trace::GenerateTrace(small);
  std::vector<ReplayConfig> configs;
  for (const core::Protocol protocol :
       {core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
        core::Protocol::kInvalidation}) {
    configs.push_back(MakeReplayConfig(spec, protocol, trace));
  }
  // The three protocol cells run concurrently through the replay farm,
  // exactly as the bench binaries drive them.
  for (const ReplayMetrics& metrics : RunAll(configs)) {
    EXPECT_EQ(metrics.requests_issued, trace.records.size());
    EXPECT_EQ(metrics.strong_violations, 0u);
    EXPECT_GT(metrics.sim_events_executed, trace.records.size());
    EXPECT_GT(metrics.sim_peak_queue_depth, 0u);
  }
}

TEST(Metrics, SummaryMentionsKeyNumbers) {
  ReplayMetrics metrics;
  metrics.requests_issued = 123;
  metrics.local_hits = 45;
  metrics.latency_ms.Record(10.0);
  const std::string summary = metrics.Summary();
  EXPECT_NE(summary.find("123"), std::string::npos);
  EXPECT_NE(summary.find("45"), std::string::npos);
}

TEST(Metrics, TotalMessagesSumsComponents) {
  ReplayMetrics metrics;
  metrics.get_requests = 1;
  metrics.ims_requests = 2;
  metrics.replies_200 = 3;
  metrics.replies_304 = 4;
  metrics.invalidations_sent = 5;
  metrics.invsrv_sent = 6;
  EXPECT_EQ(metrics.total_messages(), 21u);
  metrics.local_hits = 7;
  metrics.validated_hits = 8;
  EXPECT_EQ(metrics.cache_hits(), 15u);
}

}  // namespace
}  // namespace webcc::replay
