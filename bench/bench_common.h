// Shared plumbing for the table-regeneration benches.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "replay/engine.h"
#include "replay/experiments.h"
#include "replay/farm.h"
#include "stats/table.h"
#include "trace/presets.h"
#include "trace/summary.h"
#include "trace/workload.h"
#include "util/format.h"
#include "util/mini_json.h"

namespace webcc::bench {

inline const std::vector<core::Protocol>& PaperProtocolOrder() {
  // Column order of Tables 3/4: TTL, polling, invalidation.
  static const std::vector<core::Protocol> order = {
      core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
      core::Protocol::kInvalidation};
  return order;
}

// Generates (and caches) the synthetic trace for a preset; rows of the same
// trace at different lifetimes share one generation.
inline const trace::Trace& TraceFor(trace::TraceName name) {
  static std::map<trace::TraceName, trace::Trace> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, trace::GenerateTrace(GetPreset(name).workload))
             .first;
  }
  return it->second;
}

// --- shared BENCH_farm.json maintenance --------------------------------------
//
// Several benches record into BENCH_farm.json (bench_farm's worker sweep,
// bench_ablation_decoupled's shard x batching sweep, ...). Each bench owns
// one object-valued top-level key; writes go through this read-modify-write
// so one bench's run never clobbers the others' results.

// Replaces (or appends) one top-level key's value in the JSON object at
// `path`, preserving every other key's raw text, and echoes the written
// object to stdout. A missing or unparsable file starts a fresh object.
inline void WriteBenchJsonKey(const std::string& path, const std::string& key,
                              const std::string& value) {
  std::string existing;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    existing = buffer.str();
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  util::MiniJsonParser parser(existing);
  bool parsed = parser.Consume('{');
  while (parsed && !parser.Peek('}')) {
    std::string member;
    std::string raw;
    parsed = (pairs.empty() || parser.Consume(',')) &&
             parser.ParseString(member) && parser.Consume(':') &&
             parser.ParseRawValue(raw);
    if (parsed) pairs.emplace_back(std::move(member), std::move(raw));
  }
  if (!parsed) pairs.clear();
  bool replaced = false;
  for (auto& [existing_key, existing_value] : pairs) {
    if (existing_key != key) continue;
    existing_value = value;
    replaced = true;
  }
  if (!replaced) pairs.emplace_back(key, value);

  std::string object = "{";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i != 0) object += ", ";
    object += "\"" + pairs[i].first + "\": " + pairs[i].second;
  }
  object += "}";
  std::ofstream out(path);
  out << object << "\n";
  std::printf("%s\n", object.c_str());
}

// Runs one (experiment, protocol) cell.
inline replay::ReplayMetrics RunCell(const replay::ExperimentSpec& spec,
                                     core::Protocol protocol) {
  const trace::Trace& trace = TraceFor(spec.trace);
  return replay::RunReplay(replay::MakeReplayConfig(spec, protocol, trace));
}

// Renders one experiment's three-protocol comparison in the layout of
// Tables 3/4, with the paper's legible values alongside.
inline void PrintReplayTable(const replay::ExperimentSpec& spec,
                             const std::vector<replay::ReplayMetrics>& runs) {
  using util::Fixed;
  using util::WithCommas;
  const trace::Trace& trace = TraceFor(spec.trace);

  std::printf("Trace %s, %s requests, %s files modified (mean lifetime %s)\n",
              spec.id.c_str(),
              WithCommas(static_cast<std::int64_t>(trace.records.size())).c_str(),
              WithCommas(static_cast<std::int64_t>(
                             runs[0].modifications_applied)).c_str(),
              util::HumanDuration(spec.mean_lifetime).c_str());

  stats::Table table({"", "Adaptive TTL", "Polling-every-time",
                      "Invalidation"});
  const auto row = [&table, &runs](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (const replay::ReplayMetrics& metrics : runs) {
      cells.push_back(getter(metrics));
    }
    table.AddRow(std::move(cells));
  };

  row("Hits", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.cache_hits()));
  });
  row("GET Requests", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.get_requests));
  });
  row("If-Modified-Since", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.ims_requests));
  });
  row("Reply 200", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.replies_200));
  });
  row("Reply 304", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.replies_304));
  });
  row("Invalidations", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.invalidations_sent));
  });
  row("Total Messages", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.total_messages()));
  });
  row("Messages Bytes", [](const auto& m) {
    return util::HumanBytes(m.message_bytes);
  });
  row("Avg. Latency (ms)",
      [](const auto& m) { return util::Fixed(m.latency_ms.mean(), 1); });
  row("Min Latency (ms)",
      [](const auto& m) { return util::Fixed(m.latency_ms.min(), 1); });
  row("Max Latency (ms)",
      [](const auto& m) { return util::Fixed(m.latency_ms.max(), 1); });
  row("Server CPU", [](const auto& m) {
    return util::Fixed(m.server_cpu_utilization * 100.0, 1) + "%";
  });
  row("Disk R;W /s", [](const auto& m) {
    return util::Fixed(m.disk_reads_per_second, 2) + ";" +
           util::Fixed(m.disk_writes_per_second, 2);
  });
  row("Stale serves (exact)", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.stale_serves));
  });
  row("Strong violations", [](const auto& m) {
    return util::WithCommas(static_cast<std::int64_t>(m.strong_violations));
  });
  std::printf("%s", table.Render().c_str());

  std::printf("paper: server CPU %.1f%% / %.1f%% / %.1f%%, message bytes %s\n",
              spec.paper.cpu_percent[0], spec.paper.cpu_percent[1],
              spec.paper.cpu_percent[2], spec.paper.message_bytes);
  const double polling_over_invalidation =
      100.0 *
      (static_cast<double>(runs[1].total_messages()) /
           static_cast<double>(runs[2].total_messages()) -
       1.0);
  std::printf("shape: polling sends %+.0f%% messages vs invalidation; "
              "invalidation/TTL message ratio %.3f\n\n",
              polling_over_invalidation,
              static_cast<double>(runs[2].total_messages()) /
                  static_cast<double>(runs[0].total_messages()));
}

// Runs every (spec, protocol) cell through the replay farm and prints each
// spec's table. Cells are independent deterministic replays, so the farmed
// output is byte-identical to the serial loop this replaces — results come
// back in submission order. `workers` = 0 uses the hardware concurrency.
inline void RunAndPrintExperiments(
    const std::vector<replay::ExperimentSpec>& specs, unsigned workers = 0) {
  // TraceFor's cache is not thread-safe: generate (serially) before the
  // farm starts, then share the parsed traces immutably across workers.
  for (const replay::ExperimentSpec& spec : specs) TraceFor(spec.trace);

  std::vector<replay::ReplayConfig> configs;
  configs.reserve(specs.size() * PaperProtocolOrder().size());
  for (const replay::ExperimentSpec& spec : specs) {
    for (const core::Protocol protocol : PaperProtocolOrder()) {
      configs.push_back(
          replay::MakeReplayConfig(spec, protocol, TraceFor(spec.trace)));
    }
  }
  const std::vector<replay::ReplayMetrics> all =
      replay::RunAll(configs, workers);

  const std::size_t per_spec = PaperProtocolOrder().size();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::vector<replay::ReplayMetrics> runs(
        all.begin() + static_cast<std::ptrdiff_t>(s * per_spec),
        all.begin() + static_cast<std::ptrdiff_t>((s + 1) * per_spec));
    PrintReplayTable(specs[s], runs);
  }
}

}  // namespace webcc::bench
