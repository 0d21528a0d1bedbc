// Regenerates Table 5: invalidation costs for the six replay runs —
// site-list storage, site-list lengths at modification time, and the time
// the accelerator spends pushing all invalidations for one modification.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace webcc;

namespace {

void PrintTable5() {
  std::printf("=== Table 5: invalidation costs ===\n\n");

  const auto specs = replay::AllTableExperiments();
  // Generate traces serially (TraceFor caches), then farm the six
  // independent invalidation replays across the available cores.
  for (const replay::ExperimentSpec& spec : specs) bench::TraceFor(spec.trace);
  std::vector<replay::ReplayConfig> configs;
  configs.reserve(specs.size());
  for (const replay::ExperimentSpec& spec : specs) {
    configs.push_back(replay::MakeReplayConfig(
        spec, core::Protocol::kInvalidation, bench::TraceFor(spec.trace)));
  }
  const std::vector<replay::ReplayMetrics> runs =
      replay::RunAll(configs);

  std::vector<std::string> headers{"Trace"};
  for (const replay::ExperimentSpec& spec : specs) headers.push_back(spec.id);
  stats::Table table(std::move(headers));

  const auto row = [&](const std::string& label, auto get) {
    std::vector<std::string> cells{label};
    for (std::size_t i = 0; i < runs.size(); ++i) cells.push_back(get(i));
    table.AddRow(std::move(cells));
  };

  row("Storage", [&](std::size_t i) {
    return util::HumanBytes(runs[i].sitelist_storage_bytes);
  });
  row("  (paper)", [&](std::size_t i) {
    return std::string(specs[i].paper.sitelist_storage);
  });
  row("Site-list entries", [&](std::size_t i) {
    return util::WithCommas(
        static_cast<std::int64_t>(runs[i].sitelist_entries));
  });
  row("Avg. SiteList @mod", [&](std::size_t i) {
    return util::Fixed(runs[i].sitelist_avg_len_at_mod, 1);
  });
  row("Max. SiteList @mod", [&](std::size_t i) {
    return util::WithCommas(
        static_cast<std::int64_t>(runs[i].sitelist_max_len_at_mod));
  });
  row("Avg. Inval. Time", [&](std::size_t i) {
    return util::Fixed(runs[i].invalidation_time_ms.mean() / 1000.0, 2) + " s";
  });
  row("Max. Inval. Time", [&](std::size_t i) {
    return util::Fixed(runs[i].invalidation_time_ms.max() / 1000.0, 2) + " s";
  });
  row("Bytes/request", [&](std::size_t i) {
    const auto& trace = bench::TraceFor(specs[i].trace);
    return util::Fixed(static_cast<double>(runs[i].sitelist_storage_bytes) /
                           static_cast<double>(trace.records.size()),
                       1);
  });

  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "SDSC(57) is the 25-day-lifetime run, SDSC(576) the 2.5-day run.\n"
      "Site-list statistics are taken over modified documents, as in the\n"
      "paper. The paper observes ~20-30 bytes of site-list storage per\n"
      "request and notes that when more files are modified (SDSC(576)),\n"
      "the chance of hitting a long-listed document — and with it the\n"
      "maximum invalidation time — increases.\n\n");
}

}  // namespace

int main() {
  PrintTable5();
  return 0;
}
