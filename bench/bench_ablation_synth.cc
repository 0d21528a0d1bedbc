// Ablation A3: consistency protocol × site-population scale × write rate
// on synthetic workloads.
//
// The paper's trace-driven tables stop at a few thousand distinct clients,
// so the strong-consistency claim is only ever exercised at trace scale.
// This ablation reruns the protocol comparison on `webcc synth` workloads
// whose site population sweeps 10^3..10^5 while a flash crowd lands in the
// middle of the write stream — the regime where invalidation fan-out and
// TTL staleness diverge hardest. Every cell is generated from the same
// seeded ScenarioConfig dialect the golden corpus pins, so the grid is
// bit-reproducible.
//
// The exit code enforces the paper's core claim as a pinned assertion: the
// strong protocols (polling-every-time, invalidation, PSI) must report zero
// strong violations in every cell, and at the write-heavy point adaptive
// TTL must serve stale documents while invalidation serves none.
// `--gate-only` runs just the smallest scale (the CI default-preset job's
// mode); the full grid additionally records every cell under the
// "synth_ablation" top-level key of BENCH_farm.json.
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_common.h"
#include "synth/generate.h"
#include "synth/scenario.h"

using namespace webcc;

namespace {

constexpr std::uint32_t kScales[] = {1000, 10000, 100000};
constexpr double kWriteFractions[] = {0.02, 0.30};

synth::ScenarioConfig ScenarioFor(std::uint32_t sites, double write_fraction) {
  synth::ScenarioConfig config;
  config.name = "ablation-synth";
  config.duration = 2 * kHour;
  config.requests = 20000;
  config.sites = sites;
  config.documents = 500;
  config.doc_zipf = 0.8;
  config.site_zipf = 0.6;
  config.write_fraction = write_fraction;
  config.write_zipf = 1.0;
  config.locality = 0.2;
  config.seed = 97;
  synth::Phase crowd;
  crowd.kind = synth::PhaseKind::kFlashCrowd;
  crowd.start = kHour / 2;
  crowd.duration = kHour / 2;
  crowd.rate_multiplier = 5.0;
  crowd.write_multiplier = 2.0;
  crowd.focus = 0.7;
  crowd.hot_docs = 5;
  config.phases.push_back(crowd);
  return config;
}

struct GridCell {
  std::uint32_t sites = 0;
  double write_fraction = 0.0;
  core::Protocol protocol = core::Protocol::kAdaptiveTtl;
  replay::ReplayMetrics metrics;

  double hit_ratio() const {
    return metrics.requests_issued > 0
               ? static_cast<double>(metrics.cache_hits()) /
                     static_cast<double>(metrics.requests_issued)
               : 0.0;
  }
  double stale_ratio() const {
    return metrics.requests_issued > 0
               ? static_cast<double>(metrics.stale_serves) /
                     static_cast<double>(metrics.requests_issued)
               : 0.0;
  }
};

bool IsStrong(core::Protocol protocol) {
  return protocol != core::Protocol::kAdaptiveTtl;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate-only") == 0) gate_only = true;
  }

  std::vector<std::uint32_t> scales(std::begin(kScales), std::end(kScales));
  std::vector<core::Protocol> protocols = bench::PaperProtocolOrder();
  if (gate_only) {
    // Just the gate's scale: both write rates, TTL vs invalidation — four
    // replays, CI-sized.
    scales = {kScales[0]};
    protocols = {core::Protocol::kAdaptiveTtl, core::Protocol::kInvalidation};
  }

  // Each scenario is generated once and replayed under every protocol as
  // its trace plus its write stream. The workloads must outlive the farm:
  // ReplayConfig points at the trace.
  std::deque<synth::SynthWorkload> workloads;
  std::vector<GridCell> cells;
  std::vector<replay::ReplayConfig> configs;
  for (const std::uint32_t sites : scales) {
    for (const double write_fraction : kWriteFractions) {
      workloads.push_back(synth::Generate(ScenarioFor(sites, write_fraction)));
      const synth::SynthWorkload& workload = workloads.back();
      for (const core::Protocol protocol : protocols) {
        GridCell cell;
        cell.sites = sites;
        cell.write_fraction = write_fraction;
        cell.protocol = protocol;
        cells.push_back(cell);
        replay::ReplayConfig config;
        config.trace = &workload.trace;
        config.explicit_modifications = workload.writes;
        config.suppress_generated_modifications = true;
        config.protocol = protocol;
        configs.push_back(config);
      }
    }
  }

  std::printf("=== Ablation: protocol × synth scale × write rate "
              "(%zu replay cells) ===\n\n",
              cells.size());
  const std::vector<replay::ReplayMetrics> runs = replay::RunAll(configs);
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].metrics = runs[i];

  // One table per write rate: protocol rows × scale columns.
  for (const double write_fraction : kWriteFractions) {
    std::vector<std::string> header{"wf=" + util::Fixed(write_fraction, 2)};
    for (const std::uint32_t sites : scales) {
      header.push_back("hit% @" + std::to_string(sites));
      header.push_back("stale% @" + std::to_string(sites));
      header.push_back("msgs @" + std::to_string(sites));
    }
    stats::Table table(header);
    for (const core::Protocol protocol : protocols) {
      std::vector<std::string> row{core::ToString(protocol)};
      for (const std::uint32_t sites : scales) {
        for (const GridCell& cell : cells) {
          if (cell.sites != sites || cell.write_fraction != write_fraction ||
              cell.protocol != protocol) {
            continue;
          }
          row.push_back(util::Fixed(cell.hit_ratio() * 100.0, 2));
          row.push_back(util::Fixed(cell.stale_ratio() * 100.0, 2));
          row.push_back(std::to_string(cell.metrics.total_messages()));
        }
      }
      table.AddRow(std::move(row));
    }
    std::printf("%s\n", table.Render().c_str());
  }

  // Pinned gates.
  bool pass = true;
  std::uint64_t ttl_stale_heavy = 0;
  std::uint64_t inv_stale_heavy = 0;
  for (const GridCell& cell : cells) {
    if (IsStrong(cell.protocol) && cell.metrics.strong_violations != 0) {
      std::printf("GATE VIOLATED: %s at %u sites, wf=%.2f reported %llu "
                  "strong violations\n",
                  core::ToString(cell.protocol), cell.sites,
                  cell.write_fraction,
                  static_cast<unsigned long long>(
                      cell.metrics.strong_violations));
      pass = false;
    }
    if (cell.sites != scales.front()) continue;
    if (cell.write_fraction != kWriteFractions[1]) continue;
    if (cell.protocol == core::Protocol::kAdaptiveTtl) {
      ttl_stale_heavy = cell.metrics.stale_serves;
    }
    if (cell.protocol == core::Protocol::kInvalidation) {
      inv_stale_heavy = cell.metrics.stale_serves -
                        cell.metrics.stale_while_invalidation_in_flight;
    }
  }
  const bool divergence = ttl_stale_heavy > 0 && inv_stale_heavy == 0;
  if (!divergence) pass = false;
  std::printf(
      "write-heavy point (wf=%.2f, %u sites): adaptive TTL stale serves "
      "%llu vs invalidation post-write stale serves %llu (gate: TTL > 0, "
      "invalidation == 0): %s\n",
      kWriteFractions[1], scales.front(),
      static_cast<unsigned long long>(ttl_stale_heavy),
      static_cast<unsigned long long>(inv_stale_heavy),
      divergence ? "holds" : "VIOLATED");

  if (!gate_only) {
    std::string cells_json = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const GridCell& cell = cells[i];
      char buf[384];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"sites\": %u, \"write_fraction\": %.2f, \"protocol\": "
          "\"%s\", \"hit_ratio\": %.4f, \"stale_serves\": %llu, "
          "\"strong_violations\": %llu, \"total_messages\": %llu}",
          i == 0 ? "" : ", ", cell.sites, cell.write_fraction,
          core::ToString(cell.protocol), cell.hit_ratio(),
          static_cast<unsigned long long>(cell.metrics.stale_serves),
          static_cast<unsigned long long>(cell.metrics.strong_violations),
          static_cast<unsigned long long>(cell.metrics.total_messages()));
      cells_json += buf;
    }
    cells_json += "]";
    const std::string payload =
        std::string("{\"bench\": \"synth_ablation\", \"pass\": ") +
        (pass ? "true" : "false") + ", \"cells\": " + cells_json + "}";
    bench::WriteBenchJsonKey("BENCH_farm.json", "synth_ablation", payload);
  }
  return pass ? 0 : 1;
}
