// Ablation A2: consistency protocol × replacement policy × cache pressure.
//
// The paper runs every replay with a generously sized proxy cache, so its
// protocol comparison is almost pressure-free — except SASK, whose 24MB
// cache is small enough that Harvest's expired-first replacement starts
// interacting with adaptive TTL (Section 5's anomaly: evicting expired
// documents first throws away exactly the copies a TTL protocol could have
// revalidated with a cheap 304, so the "optimization" lowers the hit ratio).
// This ablation makes that interaction measurable: the six Table 3/4
// workloads rerun as a protocol × policy × capacity grid, with each run's
// cache scaled to {5%, 20%, 100%} of the trace's per-proxy working set
// (the distinct (client, document) bytes a proxy would hold with an
// infinite cache).
//
// The exit code enforces the paper's SASK anomaly as a pinned assertion:
// under adaptive TTL at the 5% capacity point, expired-first replacement
// must land a strictly lower hit ratio than plain LRU. `--gate-only` runs
// just that smallest grid point (the CI default-preset job's mode); the
// full grid additionally records every cell under the "pressure_ablation"
// top-level key of BENCH_farm.json.
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "http/eviction/policy.h"

using namespace webcc;

namespace {

constexpr double kFractions[] = {0.05, 0.20, 1.00};

const http::eviction::EvictionPolicyKind kPolicies[] = {
    http::eviction::EvictionPolicyKind::kLru,
    http::eviction::EvictionPolicyKind::kExpiredFirstLru,
    http::eviction::EvictionPolicyKind::kGds,
};

// Per-proxy working set: every distinct (client, document) pair becomes a
// namespaced cache entry, and the replay splits clients across
// num_pseudo_clients proxies — so an infinite cache would converge to
// roughly this many bytes per proxy.
std::uint64_t WorkingSetBytes(const trace::Trace& trace,
                              std::uint32_t pseudo_clients) {
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t total = 0;
  for (const trace::TraceRecord& record : trace.records) {
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(record.client) << 32) | record.doc;
    if (!seen.insert(pair).second) continue;
    total += trace.documents[record.doc].size_bytes;
  }
  return total / pseudo_clients;
}

struct GridCell {
  const replay::ExperimentSpec* spec = nullptr;
  core::Protocol protocol = core::Protocol::kAdaptiveTtl;
  http::eviction::EvictionPolicyKind policy =
      http::eviction::EvictionPolicyKind::kLru;
  double fraction = 1.0;
  std::uint64_t capacity_bytes = 0;
  replay::ReplayMetrics metrics;

  double hit_ratio() const {
    return metrics.requests_issued > 0
               ? static_cast<double>(metrics.cache_hits()) /
                     static_cast<double>(metrics.requests_issued)
               : 0.0;
  }
};

replay::ReplayConfig ConfigFor(const GridCell& cell,
                               const trace::Trace& trace) {
  replay::ReplayConfig config =
      replay::MakeReplayConfig(*cell.spec, cell.protocol, trace);
  config.proxy_cache_bytes = cell.capacity_bytes;
  config.eviction_policy = cell.policy;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate-only") == 0) gate_only = true;
  }

  const std::vector<replay::ExperimentSpec> all_specs =
      replay::AllTableExperiments();
  std::vector<const replay::ExperimentSpec*> specs;
  std::vector<core::Protocol> protocols;
  std::vector<http::eviction::EvictionPolicyKind> policies(
      std::begin(kPolicies), std::end(kPolicies));
  std::vector<double> fractions(std::begin(kFractions), std::end(kFractions));
  if (gate_only) {
    // Just the gate's grid point: SASK, adaptive TTL, 5%, LRU vs
    // expired-first — two replays, CI-sized.
    for (const replay::ExperimentSpec& spec : all_specs) {
      if (spec.id == "SASK") specs.push_back(&spec);
    }
    protocols = {core::Protocol::kAdaptiveTtl};
    policies = {http::eviction::EvictionPolicyKind::kLru,
                http::eviction::EvictionPolicyKind::kExpiredFirstLru};
    fractions = {kFractions[0]};
  } else {
    for (const replay::ExperimentSpec& spec : all_specs) {
      specs.push_back(&spec);
    }
    protocols = bench::PaperProtocolOrder();
  }

  // Trace generation is cached and not thread-safe: run it before the farm.
  for (const replay::ExperimentSpec* spec : specs) bench::TraceFor(spec->trace);

  std::vector<GridCell> cells;
  std::vector<replay::ReplayConfig> configs;
  for (const replay::ExperimentSpec* spec : specs) {
    const std::uint64_t working_set = WorkingSetBytes(
        bench::TraceFor(spec->trace), replay::ReplayConfig{}.num_pseudo_clients);
    for (const core::Protocol protocol : protocols) {
      for (const http::eviction::EvictionPolicyKind policy : policies) {
        for (const double fraction : fractions) {
          GridCell cell;
          cell.spec = spec;
          cell.protocol = protocol;
          cell.policy = policy;
          cell.fraction = fraction;
          cell.capacity_bytes = static_cast<std::uint64_t>(
              fraction * static_cast<double>(working_set));
          cells.push_back(cell);
          configs.push_back(ConfigFor(cells.back(),
                                      bench::TraceFor(spec->trace)));
        }
      }
    }
  }

  std::printf("=== Ablation: policy × pressure (%zu replay cells) ===\n\n",
              cells.size());
  const std::vector<replay::ReplayMetrics> runs = replay::RunAll(configs);
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].metrics = runs[i];

  // One table per (trace, protocol): policy rows × capacity columns.
  for (const replay::ExperimentSpec* spec : specs) {
    for (const core::Protocol protocol : protocols) {
      std::vector<std::string> header{std::string(spec->id) + " / " +
                                      core::ToString(protocol)};
      for (const double fraction : fractions) {
        header.push_back("hit% @" + util::Fixed(fraction * 100.0, 0) + "%");
        header.push_back("evict @" + util::Fixed(fraction * 100.0, 0) + "%");
      }
      stats::Table table(header);
      for (const http::eviction::EvictionPolicyKind policy : policies) {
        std::vector<std::string> row{
            std::string(http::eviction::ToString(policy))};
        for (const double fraction : fractions) {
          for (const GridCell& cell : cells) {
            if (cell.spec != spec || cell.protocol != protocol ||
                cell.policy != policy || cell.fraction != fraction) {
              continue;
            }
            row.push_back(util::Fixed(cell.hit_ratio() * 100.0, 2));
            row.push_back(std::to_string(cell.metrics.proxy_evictions));
          }
        }
        table.AddRow(std::move(row));
      }
      std::printf("%s\n", table.Render().c_str());
    }
  }

  // The pinned SASK anomaly: at the smallest capacity, expired-first
  // replacement under adaptive TTL evicts exactly the documents a cheap
  // 304 would have refreshed, so its hit ratio must fall below plain LRU's.
  const auto cell_at = [&cells](const std::string& id, core::Protocol protocol,
                                http::eviction::EvictionPolicyKind policy,
                                double fraction) -> const GridCell* {
    for (const GridCell& cell : cells) {
      if (cell.spec->id == id && cell.protocol == protocol &&
          cell.policy == policy && cell.fraction == fraction) {
        return &cell;
      }
    }
    return nullptr;
  };
  const GridCell* sask_lru =
      cell_at("SASK", core::Protocol::kAdaptiveTtl,
              http::eviction::EvictionPolicyKind::kLru, kFractions[0]);
  const GridCell* sask_expired = cell_at(
      "SASK", core::Protocol::kAdaptiveTtl,
      http::eviction::EvictionPolicyKind::kExpiredFirstLru, kFractions[0]);
  if (sask_lru == nullptr || sask_expired == nullptr) {
    std::printf("SASK gate cells missing from the grid\n");
    return 1;
  }
  const bool anomaly = sask_expired->hit_ratio() < sask_lru->hit_ratio();
  std::printf(
      "SASK @5%% capacity (%llu bytes), adaptive TTL: expired-first hit "
      "ratio %.2f%% vs plain LRU %.2f%% (gate: expired-first < LRU): %s\n",
      static_cast<unsigned long long>(sask_lru->capacity_bytes),
      sask_expired->hit_ratio() * 100.0, sask_lru->hit_ratio() * 100.0,
      anomaly ? "holds" : "VIOLATED");

  if (!gate_only) {
    std::string cells_json = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const GridCell& cell = cells[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"trace\": \"%s\", \"protocol\": \"%s\", \"policy\": \"%s\", "
          "\"capacity_fraction\": %.2f, \"capacity_bytes\": %llu, "
          "\"hit_ratio\": %.4f, \"evictions\": %llu, "
          "\"expired_evictions\": %llu, \"oversize_rejections\": %llu, "
          "\"stale_serves\": %llu}",
          i == 0 ? "" : ", ", cell.spec->id.c_str(),
          core::ToString(cell.protocol),
          std::string(http::eviction::ToString(cell.policy)).c_str(),
          cell.fraction, static_cast<unsigned long long>(cell.capacity_bytes),
          cell.hit_ratio(),
          static_cast<unsigned long long>(cell.metrics.proxy_evictions),
          static_cast<unsigned long long>(
              cell.metrics.proxy_expired_evictions),
          static_cast<unsigned long long>(
              cell.metrics.proxy_oversize_rejections),
          static_cast<unsigned long long>(cell.metrics.stale_serves));
      cells_json += buf;
    }
    cells_json += "]";
    const std::string payload =
        std::string("{\"bench\": \"pressure_ablation\", "
                    "\"sask_anomaly_expired_first_hit_ratio\": ") +
        util::Fixed(sask_expired->hit_ratio(), 4) +
        ", \"sask_anomaly_lru_hit_ratio\": " +
        util::Fixed(sask_lru->hit_ratio(), 4) +
        ", \"pass\": " + (anomaly ? "true" : "false") +
        ", \"cells\": " + cells_json + "}";
    bench::WriteBenchJsonKey("BENCH_farm.json", "pressure_ablation", payload);
  }
  return anomaly ? 0 : 1;
}
