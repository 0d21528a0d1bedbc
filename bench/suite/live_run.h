// The live stack under load: one LiveServer and one LiveProxy on loopback.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "host_gauge.h"
#include "stats/latency.h"
#include "trace/modifier.h"
#include "trace/record.h"
#include "workloads.h"

namespace webcc::bench {

struct LiveParams {
  double seconds = 20.0;  // measured window
  std::size_t warmup_fetches = 20000;
  // Timed start-up + warm-up repetitions; the last stack is kept.
  std::size_t setups = kSetups;
};

// The window and warm-up of `options` (20k warm-up fetches, 200 in smoke).
LiveParams LiveParamsFor(const RunOptions& options);

// Latencies in microseconds, counted in buckets 1% wide from 0.1 us up:
// fixed memory however many fetches a window holds, so recording every
// fetch does not move peak_rss_mb. Values past the last bucket (~44 s),
// such as a failed fetch, count in it.
class LatencyHistogram {
 public:
  void Record(double us);
  void Merge(const LatencyHistogram& other);
  // Nearest-rank percentile, as the geometric middle of its bucket; 0 when
  // empty.
  double Percentile(double p) const;
  std::uint64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(2000);
  std::uint64_t count_ = 0;
};

struct LiveOutcome {
  std::vector<Interval> setups;  // start-up + warm-up, per repetition
  // The window in one-second slices, with the fetches each completed.
  struct Slice {
    Interval window;
    std::uint64_t fetches = 0;
  };
  std::vector<Slice> slices;
  // Latencies in microseconds of every fetch in the window, by whether the
  // proxy answered locally; a failed fetch counts as the largest double.
  LatencyHistogram hit_us, miss_us;
  stats::LatencyStats write_us;     // from each write's due time
  stats::LatencyStats touch_us;     // TouchDocument alone
  stats::LatencyStats exchange_us;  // traced runs only
  double writer_lag_us_max = 0.0;
  std::uint64_t fetches = 0;  // warm-up included
  std::uint64_t failed_fetches = 0;
  std::uint64_t failed_exchanges = 0;
  std::uint64_t invalidations_pushed = 0;
  std::uint64_t invalidations_received = 0;  // after the settle
  std::uint64_t frames_pushed = 0;
  std::uint64_t push_failures = 0;  // frames timed out or refused
};

// Serves `trace`'s documents, warms the proxy with its request stream, then
// for `params.seconds` runs kLiveClients closed-loop Fetch threads over the
// stream and an open-loop writer touching `writes` at kLiveWritesPerSecond.
// With `spans`, records one span per Fetch and TouchDocument and probes
// live::Exchange straight to the server after the window.
LiveOutcome RunLive(const trace::Trace& trace,
                    const std::vector<trace::ModEvent>& writes,
                    const LiveParams& params, Spans* spans);

// Untraced run of live_loopback: the end-to-end metrics, their times scaled
// by `gauge`, plus the live latency metrics as result-file-only lines
// (RunResult::file_only).
RunResult MeasureLive(const RunOptions& options, const HostGauge& gauge);

// Checks an outcome and adds its attempted/failed counts to `result`.
void CheckLive(const LiveOutcome& outcome, RunResult& result);

// The live.* per-layer metrics of an outcome; all 0 for an empty outcome.
void AddLiveLayerMetrics(const LiveOutcome& outcome, RunResult& result);

}  // namespace webcc::bench
