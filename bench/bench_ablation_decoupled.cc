// Ablation A1: serialized vs decoupled invalidation sending, and the shard
// sweep of the decoupled sender tier.
//
// Part 1 (the original ablation): the paper's prototype does not accept new
// requests until all invalidations for a modification have been sent, which
// it identifies as the cause of invalidation's large worst-case client
// latency, and suggests a separate sending process as the fix. The table
// quantifies both configurations across the six replay runs.
//
// Part 2 (the shard sweep): with the sender decoupled, the remaining
// bottleneck is the single sender draining a write storm one frame at a
// time. The sweep runs a burst workload (two modification storms 50ms
// apart over 64 documents cached by up to 40 sites) at 1/2/4/8 accelerator
// shards, unbatched and with a 100ms batch window, and records per cell:
// per-shard throughput (wire URLs / busiest sender's busy time), frames/s,
// coalesced duplicates, and the worst-case write-blocked latency. Results
// go under the "shard_sweep" top-level key of BENCH_farm.json (bench_farm
// owns the "farm" key).
//
// The two claims the exit code enforces, and why they attach to different
// halves of the sweep: per-frame send CPU is constant, and in unbatched
// mode frames are (url, site) pairs that consistent hashing splits evenly,
// so the busiest sender's busy time — and with it throughput — must scale
// >= 2x from 1 to 4 shards. Batched mode cannot make that claim under this
// dense workload (a site caching documents in every shard produces a frame
// in every shard's outbox, so frames-per-shard stays near the site count);
// its win is frames collapsing by the per-site URL count and the write
// storm draining as one short burst of batched frames, which must not
// worsen — and in practice shrinks — the worst-case write-blocked latency.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "trace/workload.h"

using namespace webcc;

namespace {

// Burst workload: 40 client sites warming 64 documents for 20 minutes,
// then a full-catalog modification storm, then a second storm 50ms later
// rewriting the first half of the catalog — inside the 100ms batch window,
// so batched cells must coalesce the duplicate (site, url) pairs.
const trace::Trace& BurstTrace() {
  static const trace::Trace trace = [] {
    trace::WorkloadConfig config;
    config.name = "shard-burst";
    config.duration = 30 * kMinute;
    config.total_requests = 4000;
    config.num_documents = 64;
    config.num_clients = 40;
    config.doc_zipf_exponent = 0.3;  // spread coverage across the catalog
    config.client_zipf_exponent = 0.3;
    config.seed = 17;
    return trace::GenerateTrace(config);
  }();
  return trace;
}

replay::ReplayConfig SweepConfig(std::uint32_t shards, bool batched) {
  replay::ReplayConfig config;
  config.protocol = core::Protocol::kInvalidation;
  config.trace = &BurstTrace();
  config.num_pseudo_clients = 40;  // one site per client
  config.serialized_invalidation = false;
  config.accelerator_shards = shards;
  config.invalidation_batch_window = batched ? 100 * kMillisecond : 0;
  // The second write lands 10us of trace time after the first. Note the
  // coalesced column stays ~0 here by design of the protocol, not of the
  // outbox: the first write's fan-out deregisters every site it targets, so
  // a duplicate (site, url) outbox entry needs the site to re-fetch inside
  // the 20ms notify gap between the writes — a race the outbox must absorb
  // (the unit tests drive it directly) but that a burst workload rarely
  // hits. The second storm instead measures the no-targets fast path riding
  // through a loaded outbox.
  for (trace::DocId doc = 0; doc < 64; ++doc) {
    config.explicit_modifications.push_back(
        {20 * kMinute + 50 * doc, doc});
    if (doc < 32) {
      config.explicit_modifications.push_back(
          {20 * kMinute + 50 * doc + 10, doc});
    }
  }
  return config;
}

struct SweepCell {
  std::uint32_t shards = 0;
  bool batched = false;
  replay::ReplayMetrics metrics;

  std::uint64_t frames() const {
    return metrics.invalidation_frames_sent > 0
               ? metrics.invalidation_frames_sent
               : metrics.invalidations_sent;
  }
  double busy_seconds() const {
    return static_cast<double>(metrics.inval_sender_busy_max_us) / 1e6;
  }
  // Fan-out throughput: wire URLs pushed per second of the busiest shard
  // sender's busy time. Coalesced URLs count — they reached their site
  // inside a delivered frame without costing a send.
  double urls_per_second() const {
    const double busy = busy_seconds();
    return busy > 0.0
               ? static_cast<double>(metrics.invalidations_delivered +
                                     metrics.invalidations_coalesced) /
                     busy
               : 0.0;
  }
  double frames_per_second() const {
    const double busy = busy_seconds();
    return busy > 0.0 ? static_cast<double>(frames()) / busy : 0.0;
  }
};

}  // namespace

int main() {
  std::printf("=== Ablation: serialized vs decoupled invalidation sends ===\n\n");

  // Twelve independent replays (six rows, two sender configs): generate
  // traces serially, then farm the runs across the available cores.
  const auto specs = replay::AllTableExperiments();
  for (const replay::ExperimentSpec& spec : specs) bench::TraceFor(spec.trace);
  std::vector<replay::ReplayConfig> configs;
  configs.reserve(specs.size() * 2);
  for (const replay::ExperimentSpec& spec : specs) {
    replay::ReplayConfig serialized = replay::MakeReplayConfig(
        spec, core::Protocol::kInvalidation, bench::TraceFor(spec.trace));
    replay::ReplayConfig decoupled = serialized;
    decoupled.serialized_invalidation = false;
    configs.push_back(serialized);
    configs.push_back(decoupled);
  }
  const std::vector<replay::ReplayMetrics> runs =
      replay::RunAll(configs);

  stats::Table table({"Trace", "avg ser.", "avg dec.", "max ser.", "max dec.",
                      "p99 ser.", "p99 dec."});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const replay::ExperimentSpec& spec = specs[i];
    const replay::ReplayMetrics& with_blocking = runs[2 * i];
    const replay::ReplayMetrics& without_blocking = runs[2 * i + 1];

    table.AddRow({spec.id,
                  util::Fixed(with_blocking.latency_ms.mean(), 1) + "ms",
                  util::Fixed(without_blocking.latency_ms.mean(), 1) + "ms",
                  util::Fixed(with_blocking.latency_ms.max(), 0) + "ms",
                  util::Fixed(without_blocking.latency_ms.max(), 0) + "ms",
                  util::Fixed(with_blocking.latency_ms.Percentile(99), 1) + "ms",
                  util::Fixed(without_blocking.latency_ms.Percentile(99), 1) +
                      "ms"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Serialized sending (the paper's prototype) stalls whatever request\n"
      "queues behind a long fan-out — the max-latency column; decoupling\n"
      "the sender (the paper's proposed fix) removes the stall without\n"
      "changing average latency or any message count.\n\n");

  // --- shard sweep -----------------------------------------------------------
  std::printf("=== Shard sweep: burst fan-out, 1/2/4/8 shards ===\n\n");
  BurstTrace();  // generate outside the farm (the cache is not thread-safe)

  const std::uint32_t kShardCounts[] = {1, 2, 4, 8};
  std::vector<SweepCell> cells;
  std::vector<replay::ReplayConfig> sweep_configs;
  for (const bool batched : {false, true}) {
    for (const std::uint32_t shards : kShardCounts) {
      SweepCell cell;
      cell.shards = shards;
      cell.batched = batched;
      cells.push_back(cell);
      sweep_configs.push_back(SweepConfig(shards, batched));
    }
  }
  const std::vector<replay::ReplayMetrics> sweep_runs =
      replay::RunAll(sweep_configs);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].metrics = sweep_runs[i];
  }

  stats::Table sweep_table({"Shards", "Mode", "URLs", "Coal.", "Frames",
                            "Busy max", "URLs/s", "Frames/s", "Wr-wall max",
                            "Flush max", "Viol."});
  for (const SweepCell& cell : cells) {
    sweep_table.AddRow(
        {std::to_string(cell.shards), cell.batched ? "batched" : "unbatched",
         std::to_string(cell.metrics.invalidations_sent),
         std::to_string(cell.metrics.invalidations_coalesced),
         std::to_string(cell.frames()),
         util::Fixed(cell.busy_seconds() * 1000.0, 0) + "ms",
         util::Fixed(cell.urls_per_second(), 0),
         util::Fixed(cell.frames_per_second(), 0),
         util::Fixed(cell.metrics.write_completion_wall_ms.max(), 0) + "ms",
         util::Fixed(cell.metrics.batch_flush_ms.max(), 0) + "ms",
         std::to_string(cell.metrics.strong_violations)});
  }
  std::printf("%s\n", sweep_table.Render().c_str());

  const auto cell_at = [&cells](std::uint32_t shards,
                                bool batched) -> const SweepCell& {
    for (const SweepCell& cell : cells) {
      if (cell.shards == shards && cell.batched == batched) return cell;
    }
    std::abort();
  };
  const double scaling = cell_at(4, false).urls_per_second() /
                         cell_at(1, false).urls_per_second();
  const bool scales = scaling >= 2.0;
  // Batching's claim is latency, not throughput: fewer frames mean the
  // write storm drains sooner, so the slowest write's wall time from
  // fan-out start to completion must not regress at any shard count.
  bool batching_helps = true;
  for (const std::uint32_t shards : kShardCounts) {
    batching_helps =
        batching_helps &&
        cell_at(shards, true).metrics.write_completion_wall_ms.max() <=
            cell_at(shards, false).metrics.write_completion_wall_ms.max();
  }
  std::printf(
      "Unbatched 1->4 shard throughput scaling: %.2fx (gate: >= 2x)\n"
      "Worst-case write completion wall time, batched vs unbatched at\n"
      "every shard count (gate: batched <= unbatched): %s — at 1 shard,\n"
      "%.0fms vs %.0fms. Batching cannot claim the throughput gate itself:\n"
      "a site caching documents in every shard puts a frame in every\n"
      "shard's outbox, so per-shard frame counts stay near the site count\n"
      "regardless of shard count.\n",
      scaling, batching_helps ? "holds" : "VIOLATED",
      cell_at(1, true).metrics.write_completion_wall_ms.max(),
      cell_at(1, false).metrics.write_completion_wall_ms.max());

  std::string cells_json = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& cell = cells[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"shards\": %u, \"batched\": %s, \"urls_sent\": %llu, "
        "\"urls_delivered\": %llu, \"urls_coalesced\": %llu, "
        "\"frames\": %llu, \"sender_busy_max_ms\": %.1f, "
        "\"sender_busy_total_ms\": %.1f, \"urls_per_sec\": %.0f, "
        "\"frames_per_sec\": %.0f, \"write_wall_max_ms\": %.0f, "
        "\"write_blocked_max_ms\": %.0f, "
        "\"batch_flush_max_ms\": %.0f, \"strong_violations\": %llu}",
        i == 0 ? "" : ", ", cell.shards, cell.batched ? "true" : "false",
        static_cast<unsigned long long>(cell.metrics.invalidations_sent),
        static_cast<unsigned long long>(cell.metrics.invalidations_delivered),
        static_cast<unsigned long long>(cell.metrics.invalidations_coalesced),
        static_cast<unsigned long long>(cell.frames()),
        static_cast<double>(cell.metrics.inval_sender_busy_max_us) / 1000.0,
        static_cast<double>(cell.metrics.inval_sender_busy_total_us) / 1000.0,
        cell.urls_per_second(), cell.frames_per_second(),
        cell.metrics.write_completion_wall_ms.max(),
        cell.metrics.write_blocked_trace_ms.max(),
        cell.metrics.batch_flush_ms.max(),
        static_cast<unsigned long long>(cell.metrics.strong_violations));
    cells_json += buf;
  }
  cells_json += "]";

  const std::string payload =
      std::string("{\"bench\": \"shard_sweep\", \"batch_window_ms\": 100, "
                  "\"unbatched_urls_per_sec_scaling_1_to_4\": ") +
      util::Fixed(scaling, 2) +
      ", \"batched_write_wall_never_worse\": " +
      (batching_helps ? "true" : "false") +
      ", \"pass\": " + (scales && batching_helps ? "true" : "false") +
      ", \"cells\": " + cells_json + "}";
  bench::WriteBenchJsonKey("BENCH_farm.json", "shard_sweep", payload);
  return scales && batching_helps ? 0 : 1;
}
