// The replay workloads: untraced measurement and the traced rerun.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bench.h"
#include "host_gauge.h"
#include "replay/metrics.h"
#include "workloads.h"

namespace webcc::bench {

// One replay of every cell of a workload.
struct Pass {
  std::vector<replay::ReplayMetrics> metrics;  // parallel to Inputs::cells
  std::int64_t wall_ns = 0;  // host time inside RunReplay, summed
  std::uint64_t requests = 0;
  std::uint64_t timeouts = 0;
};

// Generates the inputs at least kSetups times and until `min_seconds` have
// passed, appending each generation's interval to `setups`, and keeps the
// last generation.
Inputs SetUp(const RunOptions& options, double min_seconds,
             std::vector<Interval>& setups);

// Untraced run of paper_tables, million_sites or edge_reads: repeats passes
// for options.seconds (at least five) and reports the end-to-end metrics,
// its times scaled by `gauge`.
RunResult MeasureReplay(const RunOptions& options, const HostGauge& gauge);

// Traced rerun of `cells`: one untraced pass, one with a counting trace
// sink (checked against ReplayMetrics) and one with a JSONL sink into a
// discarding stream. Adds the replay-derived per-layer metrics, all 0 when
// `cells` is empty, and returns the untraced pass for the probes.
Pass TraceReplay(std::span<const ReplayCell> cells, Spans& spans,
                 RunResult& result);

}  // namespace webcc::bench
