// webcc_bench: the repository's seeded end-to-end benchmark.
//
//   webcc_bench --workload W --seed S [--seconds T] [--trace 0|1] [--out DIR]
//   webcc_bench --smoke --seed S [--trace 0|1] [--out DIR]
//   webcc_bench compare A/ B/ [--spec BENCHMARK.json]
//
// A run prints a provenance line, one JSON line per metric and, last, a
// summary {"correct", "attempted", "failed", "metrics"}; the same lines go
// to a result file under --out (default build-bench/results). It exits 1
// when an output check fails. README.md in this directory defines every
// metric.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "host_gauge.h"
#include "live_run.h"
#include "probes.h"
#include "replay_run.h"
#include "workloads.h"

namespace webcc::bench {
namespace {

constexpr const char* kUsage =
    "usage: webcc_bench --workload W --seed S [--seconds T] [--trace 0|1]"
    " [--out DIR]\n"
    "       webcc_bench --smoke --seed S [--trace 0|1] [--out DIR]\n"
    "       webcc_bench compare A/ B/ [--spec BENCHMARK.json]\n"
    "workloads: paper_tables million_sites edge_reads live_loopback\n";

int UsageError(const std::string& message) {
  std::fprintf(stderr, "webcc_bench: %s\n%s", message.c_str(), kUsage);
  return 2;
}

// The traced rerun: per-layer metrics only, never end-to-end ones. It
// reruns only the workload's own traffic: live_loopback replays nothing and
// the replay workloads start no live stack, so the other kind's metrics
// read 0.
RunResult RunTraced(const RunOptions& options, Spans& spans) {
  RunResult result;
  Inputs inputs;
  {
    ScopedSpan span(&spans, "setup.MakeInputs");
    inputs = MakeInputs(options.workload, options.seed, options.smoke);
  }
  const bool live = options.workload == Workload::kLiveLoopback;
  LiveOutcome outcome;
  if (live) {
    LiveParams params = LiveParamsFor(options);
    params.setups = 1;
    const ReplayCell& cell = inputs.cells.front();
    ScopedSpan span(&spans, "live");
    outcome = RunLive(*cell.config.trace, ProbeWrites(cell), params, &spans);
    CheckLive(outcome, result);
  }
  AddLiveLayerMetrics(outcome, result);
  std::span<const ReplayCell> replays(inputs.cells);
  if (live) replays = {};
  const Pass pass = TraceReplay(replays, spans, result);
  RunProbes(inputs, pass, spans, result);
  return result;
}

int RunOne(const RunOptions& options) {
  std::fprintf(stderr, "webcc_bench: %s seed %llu%s%s\n",
               std::string(WorkloadName(options.workload)).c_str(),
               static_cast<unsigned long long>(options.seed),
               options.traced ? " traced" : "", options.smoke ? " smoke" : "");
  if (options.traced) {
    Spans spans;
    const RunResult result = RunTraced(options, spans);
    const int code = Report(options, result);
    return WriteSpans(options, spans) ? code : 1;
  }
  RunResult result;
  {
    const HostGauge gauge(GaugeFor(options.workload));
    result = options.workload == Workload::kLiveLoopback
                 ? MeasureLive(options, gauge)
                 : MeasureReplay(options, gauge);
    result.Check(gauge.Running(), "the host-speed gauge stopped");
  }
  return Report(options, result);
}

bool ParseNumber(std::string_view text, double& out) {
  const std::string copy(text);
  char* end = nullptr;
  out = std::strtod(copy.c_str(), &end);
  return !copy.empty() && end == copy.c_str() + copy.size();
}

int Main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "compare") {
    std::string spec = "BENCHMARK.json";
    std::vector<std::string> dirs;
    for (int i = 2; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--spec" && i + 1 < argc) {
        spec = argv[++i];
      } else {
        dirs.emplace_back(arg);
      }
    }
    if (dirs.size() != 2) return UsageError("compare takes two directories");
    return Compare(dirs[0], dirs[1], spec);
  }

  RunOptions options;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (!has_value) {
      return UsageError("unknown or incomplete argument " + std::string(arg));
    } else if (arg == "--workload") {
      if (!ParseWorkload(argv[++i], options.workload)) {
        return UsageError("unknown workload " + std::string(argv[i]));
      }
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseNumber(argv[++i], number) || number < 1 ||
          number != static_cast<double>(static_cast<std::uint64_t>(number))) {
        return UsageError("--seed takes a whole number >= 1");
      }
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseNumber(argv[++i], number) || !(number > 0 && number <= 3600)) {
        return UsageError("--seconds takes a number in (0, 3600]");
      }
      options.seconds = number;
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string_view value = argv[++i];
      if (value != "0" && value != "1") {
        return UsageError("--trace takes 0 or 1");
      }
      options.traced = value == "1";
    } else if (arg == "--out") {
      options.out_dir = argv[++i];
    } else {
      return UsageError("unknown argument " + std::string(arg));
    }
  }
  if (!have_seed) return UsageError("--seed is required");
  if (!have_seconds && options.smoke) options.seconds = 1.0;
  if (have_workload) return RunOne(options);
  if (!options.smoke) return UsageError("--workload is required");
  int code = 0;
  for (const Workload workload : AllWorkloads()) {
    options.workload = workload;
    code = std::max(code, RunOne(options));
  }
  return code;
}

}  // namespace
}  // namespace webcc::bench

int main(int argc, char** argv) {
  try {
    return webcc::bench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "webcc_bench: %s\n", error.what());
    return 1;
  }
}
