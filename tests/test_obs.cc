// Tests for the webcc::obs observability layer: JSONL sink format and
// interning, the metrics registry, the trace reader, the farm's
// deterministic trace merge, and the event/counter reconciliation
// identities against ReplayMetrics.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy.h"
#include "http/eviction/policy.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "replay/experiments.h"
#include "replay/farm.h"
#include "trace/presets.h"
#include "trace/workload.h"

namespace webcc::obs {
namespace {

// --- event taxonomy ---------------------------------------------------------------

TEST(EventNames, RoundTripEveryType) {
  for (int t = 0; t <= static_cast<int>(EventType::kJournalRebuild); ++t) {
    const auto type = static_cast<EventType>(t);
    const std::string_view name = EventTypeName(type);
    ASSERT_FALSE(name.empty());
    EventType back;
    ASSERT_TRUE(ParseEventTypeName(name, back)) << name;
    EXPECT_EQ(back, type);
  }
  EventType unused;
  EXPECT_FALSE(ParseEventTypeName("no_such_event", unused));
  EXPECT_FALSE(ParseEventTypeName("", unused));
}

// --- JSONL sink -------------------------------------------------------------------

TEST(JsonlSink, GoldenFormat) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.Emit({.type = EventType::kRunBegin, .at = 0, .label = "demo run"});
  sink.Emit({.type = EventType::kGetSent,
             .at = 5,
             .trace_time = 3,
             .url = "/a",
             .site = "c1"});
  sink.Emit({.type = EventType::kImsSent,
             .at = 9,
             .url = "/a",
             .site = "c1",
             .detail = 1});
  EXPECT_EQ(out.str(),
            "{\"t\":0,\"e\":\"run_begin\",\"l\":\"demo run\"}\n"
            "{\"e\":\"intern\",\"id\":0,\"n\":\"/a\"}\n"
            "{\"e\":\"intern\",\"id\":1,\"n\":\"c1\"}\n"
            "{\"t\":5,\"e\":\"get_sent\",\"tt\":3,\"u\":0,\"s\":1}\n"
            "{\"t\":9,\"e\":\"ims_sent\",\"u\":0,\"s\":1,\"d\":1}\n");
  EXPECT_EQ(sink.events_written(), 3u);
}

TEST(JsonlSink, InternScopeResetsAtRunBegin) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.Emit({.type = EventType::kRunBegin, .at = 0});
  sink.Emit({.type = EventType::kGetSent, .at = 1, .url = "/a"});
  sink.Emit({.type = EventType::kGetSent, .at = 2, .url = "/a"});
  sink.Emit({.type = EventType::kRunBegin, .at = 0});
  sink.Emit({.type = EventType::kGetSent, .at = 1, .url = "/b"});
  // "/a" interned once (second use reuses the id); the new run restarts the
  // id space so "/b" also gets id 0.
  const std::string text = out.str();
  EXPECT_EQ(text,
            "{\"t\":0,\"e\":\"run_begin\"}\n"
            "{\"e\":\"intern\",\"id\":0,\"n\":\"/a\"}\n"
            "{\"t\":1,\"e\":\"get_sent\",\"u\":0}\n"
            "{\"t\":2,\"e\":\"get_sent\",\"u\":0}\n"
            "{\"t\":0,\"e\":\"run_begin\"}\n"
            "{\"e\":\"intern\",\"id\":0,\"n\":\"/b\"}\n"
            "{\"t\":1,\"e\":\"get_sent\",\"u\":0}\n");
  // The concatenation-shaped stream must read back clean.
  std::istringstream in(text);
  const TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.runs, 2u);
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.undefined_ids, 0u);
}

TEST(JsonlSink, EscapesLabelStrings) {
  std::ostringstream out;
  JsonlTraceSink sink(out);
  sink.Emit({.type = EventType::kRunBegin,
             .at = 0,
             .label = "quote\" slash\\ tab\t nl\n bell\x07"});
  EXPECT_EQ(out.str(),
            "{\"t\":0,\"e\":\"run_begin\","
            "\"l\":\"quote\\\" slash\\\\ tab\\t nl\\n bell\\u0007\"}\n");
}

TEST(EmitHelper, NullSinkIsANoOp) {
  // The disabled-tracing hot path: a null sink pointer must be safe and
  // side-effect free at every call site.
  Emit(nullptr, {.type = EventType::kGetSent, .at = 1, .url = "/a"});
  NullTraceSink null_sink;
  Emit(&null_sink, {.type = EventType::kGetSent, .at = 1, .url = "/a"});
}

TEST(BufferSink, TakeTextDrainsBuffer) {
  BufferTraceSink sink;
  sink.Emit({.type = EventType::kRunBegin, .at = 7});
  const std::string text = sink.Text();
  EXPECT_EQ(text, "{\"t\":7,\"e\":\"run_begin\"}\n");
  EXPECT_EQ(sink.TakeText(), text);
}

// --- metrics registry -------------------------------------------------------------

TEST(Metrics, WriteJsonSortsAcrossKinds) {
  MetricsRegistry registry;
  registry.SetCounter("b.counter", 2);
  registry.SetGauge("a.gauge", 1.5);
  stats::LatencyStats hist;
  hist.Record(10.0);
  registry.MergeHistogram("c.hist", hist);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"a.gauge\": 1.5,\n"
            "  \"b.counter\": 2,\n"
            "  \"c.hist\": {\"count\":1,\"mean\":10,\"min\":10,\"max\":10,"
            "\"p50\":10,\"p95\":10,\"p99\":10}\n"
            "}\n");
}

TEST(Metrics, MergeFromPrefixesAndAccumulates) {
  MetricsRegistry a;
  a.SetCounter("hits", 3);
  a.SetGauge("util", 0.25);
  stats::LatencyStats lat;
  lat.Record(1.0);
  a.MergeHistogram("lat", lat);

  MetricsRegistry merged;
  merged.MergeFrom(a, "run1.");
  merged.MergeFrom(a, "run1.");  // counters add, gauges overwrite
  EXPECT_EQ(merged.CounterValue("run1.hits"), 6u);
  EXPECT_EQ(merged.GaugeValue("run1.util"), 0.25);
  std::ostringstream dump;
  merged.WriteJson(dump);  // histograms add their samples
  EXPECT_NE(dump.str().find("\"run1.lat\": {\"count\":2,"),
            std::string::npos)
      << dump.str();
  EXPECT_EQ(merged.CounterValue("hits"), 0u);  // unprefixed name untouched
}

TEST(Metrics, MergeHistogramAddsACopyToWhatTheNameHolds) {
  MetricsRegistry registry;
  stats::LatencyStats low;
  low.Record(1.0);
  low.Record(3.0);
  stats::LatencyStats high;
  high.Record(8.0);
  registry.MergeHistogram("lat", low);
  registry.MergeHistogram("lat", high);
  registry.MergeHistogram("idle", {});  // an empty merge still names it
  // The registry holds values: a later sample in the caller's histogram
  // does not reach it.
  low.Record(100.0);
  EXPECT_EQ(registry.size(), 2u);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_NE(out.str().find("\"idle\": {\"count\":0,"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("\"lat\": {\"count\":3,\"mean\":4,\"min\":1,"
                           "\"max\":8,"),
            std::string::npos)
      << out.str();
}

// --- trace reader -----------------------------------------------------------------

TEST(TraceReader, FlagsMalformedUnknownAndUndefined) {
  std::istringstream in(
      "{\"t\":0,\"e\":\"run_begin\"}\n"
      "{\"e\":\"intern\",\"id\":0,\"n\":\"/a\"}\n"
      "{\"t\":1,\"e\":\"get_sent\",\"u\":0}\n"
      "{\"t\":2,\"e\":\"get_sent\",\"u\":7}\n"      // id 7 never interned
      "{\"t\":3,\"e\":\"mystery_event\"}\n"          // unknown type
      "this is not json\n"                            // malformed
      "{\"t\":4,\"e\":\"run_end\"}\n");
  const TraceSummary summary = SummarizeTrace(in);
  EXPECT_EQ(summary.runs, 1u);
  EXPECT_EQ(summary.intern_lines, 1u);
  EXPECT_EQ(summary.total_events, 4u);  // unknown lines are tallied apart
  EXPECT_EQ(summary.unknown_events, 1u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_EQ(summary.undefined_ids, 1u);
  EXPECT_EQ(summary.first_at, 0);
  EXPECT_EQ(summary.last_at, 4);
  EXPECT_EQ(summary.CountOf(EventType::kGetSent), 2u);
}

TEST(TraceReader, SummaryReportMentionsProblems) {
  TraceSummary summary;
  summary.total_events = 3;
  summary.malformed_lines = 2;
  summary.undefined_ids = 1;
  summary.by_type[static_cast<std::size_t>(EventType::kGetSent)] = 3;
  std::ostringstream out;
  WriteTraceSummary(out, summary);
  const std::string report = out.str();
  EXPECT_NE(report.find("get_sent"), std::string::npos);
  EXPECT_NE(report.find("malformed"), std::string::npos);
}

}  // namespace
}  // namespace webcc::obs

namespace webcc::replay {
namespace {

// --- replay integration: farm trace merge + reconciliation --------------------

trace::Trace SmallTrace() {
  trace::WorkloadConfig config = trace::GetPreset(trace::TraceName::kEpa).workload;
  config.total_requests /= 100;
  config.num_documents /= 10;
  config.num_clients /= 10;
  return trace::GenerateTrace(config);
}

std::vector<ReplayConfig> SmallConfigs(const trace::Trace& trace) {
  std::vector<ReplayConfig> configs;
  for (const core::Protocol protocol :
       {core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
        core::Protocol::kInvalidation}) {
    configs.push_back(
        MakeReplayConfig(Table3Experiments()[0], protocol, trace));
  }
  return configs;
}

std::string MergedTrace(const std::vector<ReplayConfig>& configs,
                        unsigned workers) {
  std::ostringstream merged;
  RunAll(configs, workers, &merged);
  return merged.str();
}

TEST(FarmTrace, MergeIsBitIdenticalAcrossWorkerCounts) {
  const trace::Trace trace = SmallTrace();
  const auto configs = SmallConfigs(trace);
  const std::string serial = MergedTrace(configs, 1);
  const std::string farmed = MergedTrace(configs, 4);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, farmed);
  // And the merged stream is structurally sound: one run per config, ids
  // always defined (scopes restart at each run_begin).
  std::istringstream in(serial);
  const obs::TraceSummary summary = obs::SummarizeTrace(in);
  EXPECT_EQ(summary.runs, configs.size());
  EXPECT_EQ(summary.malformed_lines, 0u);
  EXPECT_EQ(summary.undefined_ids, 0u);
  EXPECT_EQ(summary.unknown_events, 0u);
}

// The `eviction` lines of a JSONL trace whose detail is `detail`.
std::uint64_t EvictionsWithDetail(const std::string& jsonl, int detail) {
  const std::string field = ",\"d\":" + std::to_string(detail);
  std::uint64_t count = 0;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    const std::size_t at = line.find(field);
    if (line.find("\"e\":\"eviction\"") != std::string::npos &&
        at != std::string::npos &&
        (line[at + field.size()] == ',' || line[at + field.size()] == '}')) {
      ++count;
    }
  }
  return count;
}

// The taxonomy's contract: each mirrored event type is emitted at exactly
// the site that increments its ReplayMetrics counter. Replays `config` and
// checks every mirrored pair; returns the metrics.
ReplayMetrics ExpectEventsMatchCounters(ReplayConfig config) {
  obs::BufferTraceSink sink;
  config.trace_sink = &sink;
  const ReplayMetrics m = RunReplay(config);

  const std::string text = sink.TakeText();
  std::istringstream in(text);
  const obs::TraceSummary s = obs::SummarizeTrace(in);
  EXPECT_EQ(s.runs, 1u);
  EXPECT_EQ(s.malformed_lines, 0u);
  EXPECT_EQ(s.undefined_ids, 0u);
  EXPECT_EQ(s.CountOf(obs::EventType::kGetSent), m.get_requests);
  EXPECT_EQ(s.CountOf(obs::EventType::kImsSent), m.ims_requests);
  EXPECT_EQ(s.CountOf(obs::EventType::kReply200), m.replies_200);
  EXPECT_EQ(s.CountOf(obs::EventType::kReply304), m.replies_304);
  EXPECT_EQ(s.CountOf(obs::EventType::kStaleHit), m.stale_serves);
  EXPECT_EQ(s.CountOf(obs::EventType::kModification), m.modifications_applied);
  EXPECT_EQ(s.CountOf(obs::EventType::kInvalidateGenerated),
            m.invalidations_sent);
  EXPECT_EQ(s.CountOf(obs::EventType::kInvalidateDelivered),
            m.invalidations_delivered);
  EXPECT_EQ(s.CountOf(obs::EventType::kInvalidateRefused) +
                s.CountOf(obs::EventType::kInvalidateGaveUp),
            m.invalidations_refused);
  // A policy victim (detail 0, or 1 when the expired-first rule chose it)
  // and an oversize rejection (detail 2) each emit one kEviction event.
  EXPECT_EQ(s.CountOf(obs::EventType::kEviction),
            m.proxy_evictions + m.proxy_oversize_rejections);
  EXPECT_EQ(EvictionsWithDetail(text, 1), m.proxy_expired_evictions);
  EXPECT_EQ(EvictionsWithDetail(text, 2), m.proxy_oversize_rejections);
  EXPECT_EQ(s.CountOf(obs::EventType::kRequestTimeout), m.request_timeouts);
  EXPECT_EQ(s.CountOf(obs::EventType::kInvalidateServer), m.invsrv_sent);
  // Every issued request resolves as served or timed out.
  EXPECT_EQ(s.CountOf(obs::EventType::kRequestServed) +
                s.CountOf(obs::EventType::kRequestTimeout),
            m.requests_issued);
  return m;
}

TEST(Reconciliation, EventCountsMatchReplayCounters) {
  const trace::Trace trace = SmallTrace();
  for (const core::Protocol protocol :
       {core::Protocol::kAdaptiveTtl, core::Protocol::kInvalidation}) {
    ExpectEventsMatchCounters(
        MakeReplayConfig(Table3Experiments()[0], protocol, trace));
  }
}

TEST(Reconciliation, EvictionEventsMatchUnderPressure) {
  // The default 128 MiB cache never evicts; a small one does under every
  // policy, and it also rejects the documents larger than itself.
  const trace::Trace trace = SmallTrace();
  using http::eviction::EvictionPolicyKind;
  for (const EvictionPolicyKind policy :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kExpiredFirstLru,
        EvictionPolicyKind::kGds}) {
    SCOPED_TRACE(std::string(http::eviction::ToString(policy)));
    ReplayConfig config = MakeReplayConfig(
        Table3Experiments()[0], core::Protocol::kAdaptiveTtl, trace);
    config.proxy_cache_bytes = 200000;
    config.eviction_policy = policy;
    const ReplayMetrics m = ExpectEventsMatchCounters(config);
    EXPECT_GT(m.proxy_evictions, 0u);
    EXPECT_GT(m.proxy_oversize_rejections, 0u);
    if (policy == EvictionPolicyKind::kExpiredFirstLru) {
      EXPECT_GT(m.proxy_expired_evictions, 0u);
    }
  }
}

// The other protocols reach the cache through their own paths as well:
// revalidation on every request, invalidation erasures, PCV's TakeExpired
// and re-arm, PSI's per-URL erasure, and the hierarchy's parent, one more
// proxy cache. The identity must hold under pressure for each.
struct PressurePoint {
  core::Protocol protocol;
  bool hierarchical;
};

class ReconciliationUnderPressure
    : public ::testing::TestWithParam<PressurePoint> {};

TEST_P(ReconciliationUnderPressure, EvictionEventsMatchCounters) {
  const trace::Trace trace = SmallTrace();
  ReplayConfig config =
      MakeReplayConfig(Table3Experiments()[0], GetParam().protocol, trace);
  config.proxy_cache_bytes = 200000;
  if (GetParam().hierarchical) {
    // The parent's cache is four leaves' worth, so this is the 200,000
    // bytes it evicts under.
    config.hierarchical = true;
    config.proxy_cache_bytes = 50000;
  }
  const ReplayMetrics m = ExpectEventsMatchCounters(config);
  EXPECT_GT(m.proxy_evictions, 0u);
  EXPECT_GT(m.proxy_oversize_rejections, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OtherProtocols, ReconciliationUnderPressure,
    ::testing::Values(PressurePoint{core::Protocol::kPollEveryTime, false},
                      PressurePoint{core::Protocol::kInvalidation, false},
                      PressurePoint{core::Protocol::kPiggybackValidation,
                                    false},
                      PressurePoint{core::Protocol::kPiggybackInvalidation,
                                    false},
                      PressurePoint{core::Protocol::kInvalidation, true}),
    [](const ::testing::TestParamInfo<PressurePoint>& info) {
      std::string name = core::ToString(info.param.protocol);
      for (char& c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
      }
      return info.param.hierarchical ? name + "_hierarchical" : name;
    });

TEST(Reconciliation, RegistryExportIsASuperset) {
  const trace::Trace trace = SmallTrace();
  ReplayConfig config = MakeReplayConfig(
      Table3Experiments()[0], core::Protocol::kInvalidation, trace);
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  const ReplayMetrics m = RunReplay(config);

  EXPECT_EQ(registry.CounterValue("replay.get_requests"), m.get_requests);
  EXPECT_EQ(registry.CounterValue("replay.ims_requests"), m.ims_requests);
  EXPECT_EQ(registry.CounterValue("replay.replies_200"), m.replies_200);
  EXPECT_EQ(registry.CounterValue("replay.replies_304"), m.replies_304);
  EXPECT_EQ(registry.CounterValue("replay.local_hits"), m.local_hits);
  EXPECT_EQ(registry.CounterValue("replay.cache_hits"), m.cache_hits());
  EXPECT_EQ(registry.CounterValue("replay.requests_issued"),
            m.requests_issued);
  // Component registries ride along under their prefixes.
  EXPECT_EQ(registry.CounterValue("accelerator.requests"),
            m.get_requests + m.ims_requests);
  EXPECT_GT(registry.CounterValue("network.messages_delivered"), 0u);
  // And the dump itself is stable: two identical runs, byte-identical JSON
  // once the one host-timing gauge is masked (the registry's analogue of
  // SameSimulation() excluding host_seconds).
  obs::MetricsRegistry again;
  ReplayConfig config2 = MakeReplayConfig(
      Table3Experiments()[0], core::Protocol::kInvalidation, trace);
  config2.metrics = &again;
  RunReplay(config2);
  registry.SetGauge("replay.host_seconds", 0.0);
  again.SetGauge("replay.host_seconds", 0.0);
  std::ostringstream dump1, dump2;
  registry.WriteJson(dump1);
  again.WriteJson(dump2);
  EXPECT_EQ(dump1.str(), dump2.str());
}

}  // namespace
}  // namespace webcc::replay
