// Measures the replay farm on the full Table 3+4 sweep (18 cells: six
// experiment rows under three protocols) across a 1/2/4/8 worker sweep,
// verifying along the way that every worker count produces identical
// simulations. Writes the "farm" top-level key of BENCH_farm.json (the
// "shard_sweep" key belongs to bench_ablation_decoupled):
//
//   "farm": {"bench": "farm", "hardware_concurrency": H, "cells": 18,
//            "worker_sweep": [{"workers": 1, "used_workers": 1,
//                              "wall_ms": ..., "speedup": 1.00}, ...],
//            "identical": true,
//            "tables": [{"table": "table3", "wall_ms": ...,
//                        "events_per_second": ...,
//                        "requests_per_second": ...}, ...]}
//
// speedup is each sweep point's wall time against the 1-worker point.
// hardware_concurrency is recorded because it explains sub-1.0 speedups:
// on a single-core host every extra worker only adds scheduling overhead,
// so the sweep documents the overhead instead of hiding it behind one
// unexplained cell. Per-table rates aggregate the farmed batch: total
// simulator events (or client requests) divided by the batch's wall-clock
// time. The exit code fails unless every worker count simulated alike.
//
// Flags: --workers N adds N to the sweep (default sweep is 1/2/4/8).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "replay/farm.h"

using namespace webcc;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<replay::ReplayConfig> CellsFor(
    const std::vector<replay::ExperimentSpec>& specs) {
  std::vector<replay::ReplayConfig> configs;
  configs.reserve(specs.size() * bench::PaperProtocolOrder().size());
  for (const replay::ExperimentSpec& spec : specs) {
    for (const core::Protocol protocol : bench::PaperProtocolOrder()) {
      configs.push_back(
          replay::MakeReplayConfig(spec, protocol, bench::TraceFor(spec.trace)));
    }
  }
  return configs;
}

struct BatchRun {
  double wall_ms = 0.0;
  std::vector<replay::ReplayMetrics> metrics;

  std::uint64_t TotalEvents() const {
    std::uint64_t total = 0;
    for (const replay::ReplayMetrics& m : metrics) total += m.sim_events_executed;
    return total;
  }
  std::uint64_t TotalRequests() const {
    std::uint64_t total = 0;
    for (const replay::ReplayMetrics& m : metrics) total += m.requests_issued;
    return total;
  }
};

BatchRun RunBatch(const std::vector<replay::ReplayConfig>& configs,
                  unsigned workers) {
  BatchRun run;
  const auto start = Clock::now();
  run.metrics = replay::RunAll(configs, workers);
  run.wall_ms = MillisSince(start);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> sweep = {1, 2, 4, 8};
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--workers") {
      const unsigned extra =
          static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
      if (extra > 0 &&
          std::find(sweep.begin(), sweep.end(), extra) == sweep.end()) {
        sweep.push_back(extra);
        std::sort(sweep.begin(), sweep.end());
      }
    }
  }

  const auto table3 = replay::Table3Experiments();
  const auto table4 = replay::Table4Experiments();
  const auto all_specs = replay::AllTableExperiments();
  // Trace generation is shared, cached, and not thread-safe: do it before
  // any farm starts (and outside every timed region).
  for (const replay::ExperimentSpec& spec : all_specs) {
    bench::TraceFor(spec.trace);
  }

  // The worker sweep: the 1-worker point is the serial baseline every other
  // point's speedup and identity are measured against.
  const auto all_cells = CellsFor(all_specs);
  std::vector<BatchRun> runs;
  runs.reserve(sweep.size());
  for (const unsigned workers : sweep) {
    runs.push_back(RunBatch(all_cells, workers));
  }
  const BatchRun& serial = runs.front();

  bool identical = true;
  for (const BatchRun& run : runs) {
    identical = identical && run.metrics.size() == serial.metrics.size();
    for (std::size_t i = 0; identical && i < serial.metrics.size(); ++i) {
      identical = replay::SameSimulation(serial.metrics[i], run.metrics[i]);
    }
  }

  // Per-table farmed batches for the per-table wall/rate numbers.
  const BatchRun t3 = RunBatch(CellsFor(table3), 0);
  const BatchRun t4 = RunBatch(CellsFor(table4), 0);

  std::string sweep_json = "[";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    // RunAll never starts more workers than there are cells.
    const auto used = static_cast<unsigned>(
        std::min<std::size_t>(sweep[i], all_cells.size()));
    char cell[160];
    std::snprintf(cell, sizeof(cell),
                  "%s{\"workers\": %u, \"used_workers\": %u, "
                  "\"wall_ms\": %.1f, \"speedup\": %.2f}",
                  i == 0 ? "" : ", ", sweep[i], used, runs[i].wall_ms,
                  runs[i].wall_ms > 0.0 ? serial.wall_ms / runs[i].wall_ms
                                        : 0.0);
    sweep_json += cell;
  }
  sweep_json += "]";

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\": \"farm\", \"hardware_concurrency\": %u, \"cells\": %zu, "
      "\"worker_sweep\": %s, \"identical\": %s, \"tables\": ["
      "{\"table\": \"table3\", \"wall_ms\": %.1f, "
      "\"events_per_second\": %.0f, \"requests_per_second\": %.0f}, "
      "{\"table\": \"table4\", \"wall_ms\": %.1f, "
      "\"events_per_second\": %.0f, \"requests_per_second\": %.0f}]}",
      std::max(1u, std::thread::hardware_concurrency()), all_cells.size(),
      sweep_json.c_str(), identical ? "true" : "false", t3.wall_ms,
      static_cast<double>(t3.TotalEvents()) / (t3.wall_ms / 1000.0),
      static_cast<double>(t3.TotalRequests()) / (t3.wall_ms / 1000.0),
      t4.wall_ms, static_cast<double>(t4.TotalEvents()) / (t4.wall_ms / 1000.0),
      static_cast<double>(t4.TotalRequests()) / (t4.wall_ms / 1000.0));

  bench::WriteBenchJsonKey("BENCH_farm.json", "farm", json);
  return identical ? 0 : 1;
}
