// Workload inputs: everything a run replays or serves, made from the seed.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bench.h"
#include "host_gauge.h"
#include "replay/config.h"
#include "synth/generate.h"
#include "synth/scenario.h"
#include "trace/modifier.h"
#include "trace/workload.h"

namespace webcc::bench {

// One replay of a workload: a RunReplay configuration over one of the
// workload's generated traces.
struct ReplayCell {
  std::string label;
  replay::ReplayConfig config;
};

// Generated inputs. Cells point into `traces`, whose deque storage keeps
// element addresses stable across moves, so Inputs is move-only.
struct Inputs {
  Inputs() = default;
  Inputs(Inputs&&) = default;
  Inputs& operator=(Inputs&&) = default;
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  // paper_tables: one per Table 2 trace (writes empty: the engine derives
  // each row's modifier schedule). The synth workloads: their one scenario.
  std::deque<synth::SynthWorkload> traces;
  // What `traces` were generated from: the Table 2 presets (paper_tables)
  // or the one scenario. The generator probe reruns these.
  std::vector<trace::WorkloadConfig> trace_configs;
  std::vector<synth::ScenarioConfig> scenarios;
  std::vector<ReplayCell> cells;
  // FNV-1a over the synth::WorkloadDigest of every trace, in order.
  std::uint64_t digest = 0;
};

Inputs MakeInputs(Workload workload, std::uint64_t seed, bool smoke);

// The write stream RunReplay applies for `cell`, which the accelerator and
// outbox probes and the live writer replay: the scenario's writes, or the
// modifier schedule RunReplay derives for a Table 2 row. Empty for a
// read-only scenario (edge_reads), whose write-path probes then read 0.
std::vector<trace::ModEvent> ProbeWrites(const ReplayCell& cell);

// Seed-1 reference outputs at full size (output check).
struct Pin {
  std::uint64_t digest = 0;
  // Summed over the workload's cells; unchecked for live_loopback, whose
  // counts depend on timing.
  std::uint64_t requests_issued = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t invalidations_sent = 0;
};
Pin PinFor(Workload workload);

// The host-speed gauge that tracks the workload, measured on the reference
// host (README.md). The replay workloads take the memory burst: to the
// power 1.6 for paper_tables, which replays six small traces one at a time
// and lives in the caches that other tenants' use slows most, and 1.2 for
// million_sites and edge_reads, whose 150-250 MB miss the caches whatever
// the host does. live_loopback takes the loopback burst to the power 1.0.
GaugeConfig GaugeFor(Workload workload);

// The live_loopback load: closed-loop client threads and the writer's rate.
inline constexpr int kLiveClients = 2;
inline constexpr double kLiveWritesPerSecond = 50.0;

}  // namespace webcc::bench
