// MetricsRegistry: a flat namespace of named counters and histograms.
//
// Components expose their measurements by registering into a registry
// (ProxyCache, Accelerator, InvalidationTable and sim::Network each provide
// an ExportMetrics(registry, prefix)), and the replay engine exports the
// full ReplayMetrics superset under "replay.". The registry is the
// machine-readable face of a run: `webcc replay --metrics-out` dumps it as
// one JSON object whose keys sort deterministically, so two bit-identical
// simulations produce byte-identical metric dumps — except for the
// explicitly host-timing gauge `replay.host_seconds` (the same exclusion
// replay::SameSimulation makes).
//
// The paper tables keep being rendered from ReplayMetrics itself — the
// registry carries a superset of those fields, never a substitute, which is
// how the regenerated Tables 3/4/5 stay byte-identical.
//
// Not thread-safe: one registry per run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "stats/latency.h"

namespace webcc::obs {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Snapshot setters for export paths; each creates its metric when absent.
  // A gauge holds a snapshot, not an accumulation (bytes used,
  // utilization), as a double to cover both.
  void SetCounter(std::string_view name, std::uint64_t value);
  void SetGauge(std::string_view name, double value);
  // Adds `samples` to a histogram, bucket by bucket.
  void MergeHistogram(std::string_view name,
                      const stats::LatencyStats& samples);

  // Reads a counter's value; 0 when absent.
  std::uint64_t CounterValue(std::string_view name) const;
  // Reads a gauge's value; 0.0 when absent.
  double GaugeValue(std::string_view name) const;

  std::size_t size() const {
    return counters_.size() + histograms_.size() + gauges_.size();
  }

  // Copies every metric of `other` into this registry with `prefix`
  // prepended to its name (counters add, histograms add bucket counts,
  // gauges overwrite). Lets a sweep combine its per-run registries into one
  // dump: merged.MergeFrom(run_registry, "invalidation.").
  void MergeFrom(const MetricsRegistry& other, std::string_view prefix);

  // One JSON object, keys sorted lexicographically. Counters serialize as
  // integers, gauges as doubles, histograms as
  // {"count":..,"mean":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..}:
  // count, mean, min and max exact, the percentiles within 1%.
  void WriteJson(std::ostream& out) const;

 private:
  // std::map: deterministic iteration order for WriteJson. A histogram is
  // a stats::LatencyStats, which keeps exact count/sum/min/max and a
  // fixed-memory log-linear histogram for the percentiles, not the samples.
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, stats::LatencyStats, std::less<>> histograms_;
  std::map<std::string, double, std::less<>> gauges_;
};

}  // namespace webcc::obs
