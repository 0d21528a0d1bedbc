// Ablation A3: unicast vs multicast invalidation fan-out.
//
// Section 5.2 suggests that invalidation should "either limit the number of
// invalidation messages for each document (see Section 6), or use multicast
// schemes". The two-tier bench covers the former; this ablation quantifies
// the latter: with multicast the server pays one send per modification
// regardless of site-list length.
#include <cstdio>

#include "bench_common.h"

using namespace webcc;

int main() {
  std::printf("=== Ablation: unicast vs multicast invalidation ===\n\n");

  // Twelve independent replays (six rows, unicast + multicast): generate
  // traces serially, then farm the runs across the available cores.
  const auto specs = replay::AllTableExperiments();
  for (const replay::ExperimentSpec& spec : specs) bench::TraceFor(spec.trace);
  std::vector<replay::ReplayConfig> configs;
  configs.reserve(specs.size() * 2);
  for (const replay::ExperimentSpec& spec : specs) {
    replay::ReplayConfig unicast = replay::MakeReplayConfig(
        spec, core::Protocol::kInvalidation, bench::TraceFor(spec.trace));
    replay::ReplayConfig multicast = unicast;
    multicast.multicast_invalidation = true;
    configs.push_back(unicast);
    configs.push_back(multicast);
  }
  const std::vector<replay::ReplayMetrics> runs =
      replay::RunAll(configs);

  stats::Table table({"Trace", "inv msgs uni", "inv msgs multi", "bytes uni",
                      "bytes multi", "max lat uni", "max lat multi",
                      "max inval uni", "max inval multi"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const replay::ExperimentSpec& spec = specs[i];
    const replay::ReplayMetrics& uni = runs[2 * i];
    const replay::ReplayMetrics& multi = runs[2 * i + 1];

    table.AddRow(
        {spec.id,
         util::WithCommas(static_cast<std::int64_t>(uni.invalidation_messages())),
         util::WithCommas(
             static_cast<std::int64_t>(multi.invalidation_messages())),
         util::HumanBytes(uni.message_bytes),
         util::HumanBytes(multi.message_bytes),
         util::Fixed(uni.latency_ms.max() / 1000.0, 1) + "s",
         util::Fixed(multi.latency_ms.max() / 1000.0, 1) + "s",
         util::Fixed(uni.invalidation_time_ms.max() / 1000.0, 1) + "s",
         util::Fixed(multi.invalidation_time_ms.max() / 1000.0, 1) + "s"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Multicast collapses the server's fan-out cost to one send per\n"
      "modification: the thousand-message NASA fan-outs disappear from both\n"
      "the invalidation-time and worst-case-latency columns, attacking the\n"
      "same problem as decoupled sending but on the network side too.\n");
  return 0;
}
