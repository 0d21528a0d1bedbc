#include "workloads.h"

#include <map>

#include "core/policy.h"
#include "replay/experiments.h"
#include "trace/presets.h"

namespace webcc::bench {
namespace {

// Seed S shifts every fixed seed of a workload by (S - 1) strides, so S = 1
// reproduces the seeds the table benches and presets use today.
std::uint64_t Reseed(std::uint64_t base, std::uint64_t seed) {
  return base + (seed - 1) * 1000003ull;
}

std::uint64_t Fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void AddPaperTables(Inputs& inputs, std::uint64_t seed, bool smoke) {
  std::map<trace::TraceName, const trace::Trace*> trace_of;
  for (const trace::TraceName name : trace::AllTraces()) {
    trace::WorkloadConfig config = trace::GetPreset(name).workload;
    config.seed = Reseed(config.seed, seed);
    if (smoke) {
      config.total_requests /= 100;
      config.num_documents /= 10;
      config.num_clients /= 10;
    }
    inputs.traces.push_back({trace::GenerateTrace(config), {}});
    inputs.trace_configs.push_back(config);
    trace_of[name] = &inputs.traces.back().trace;
  }
  // Column order of Tables 3/4.
  const core::Protocol protocols[] = {core::Protocol::kAdaptiveTtl,
                                      core::Protocol::kPollEveryTime,
                                      core::Protocol::kInvalidation};
  for (const replay::ExperimentSpec& spec : replay::AllTableExperiments()) {
    for (const core::Protocol protocol : protocols) {
      ReplayCell cell;
      cell.label = spec.id + "/" + core::ToString(protocol);
      cell.config =
          replay::MakeReplayConfig(spec, protocol, *trace_of.at(spec.trace));
      cell.config.modifier_seed = Reseed(cell.config.modifier_seed, seed);
      cell.config.seed = Reseed(cell.config.seed, seed);
      inputs.cells.push_back(std::move(cell));
    }
  }
}

synth::ScenarioConfig ScenarioFor(Workload workload, std::uint64_t seed,
                                  bool smoke) {
  synth::ScenarioConfig config;
  config.name = std::string(WorkloadName(workload));
  config.seed = Reseed(config.seed, seed);
  const std::uint32_t shrink = smoke ? 100 : 1;
  switch (workload) {
    case Workload::kMillionSites:
      config.sites = 1000000 / shrink;
      config.documents = 20000 / shrink;
      config.requests = 200000 / shrink;
      config.write_fraction = 0.05;
      config.locality = 0.2;
      config.duration = 4 * kHour;
      break;
    case Workload::kEdgeReads:
      config.sites = 256;
      config.documents = 50000 / shrink;
      config.requests = 500000 / shrink;
      config.doc_zipf = 0.9;
      config.locality = 0.5;
      config.duration = 24 * kHour;
      break;
    case Workload::kLiveLoopback:
      // The live clients cycle through this request stream; 64 sites
      // become the proxy's client names.
      config.sites = 64;
      config.documents = 2000 / (smoke ? 10 : 1);
      config.requests = 200000 / shrink;
      config.doc_zipf = 0.8;
      config.write_fraction = 0.01;
      config.duration = kHour;
      break;
    case Workload::kPaperTables:
      break;
  }
  return config;
}

// The accelerator setup million_sites, edge_reads and live_loopback share:
// invalidation with a decoupled sender, 4 shards and a 50 ms batch window.
void AddScenario(Inputs& inputs, Workload workload, std::uint64_t seed,
                 bool smoke) {
  inputs.scenarios.push_back(ScenarioFor(workload, seed, smoke));
  inputs.traces.push_back(synth::Generate(inputs.scenarios.back()));
  const synth::SynthWorkload& generated = inputs.traces.back();
  ReplayCell cell;
  cell.label = std::string(WorkloadName(workload));
  replay::ReplayConfig& config = cell.config;
  config.protocol = core::Protocol::kInvalidation;
  config.trace = &generated.trace;
  config.explicit_modifications = generated.writes;
  config.suppress_generated_modifications = true;
  config.serialized_invalidation = false;
  config.accelerator_shards = 4;
  config.invalidation_batch_window = 50 * kMillisecond;
  if (workload == Workload::kMillionSites) {
    // Large enough that the proxies never evict: this workload is about
    // the accelerator, not the cache.
    config.proxy_cache_bytes = 1ull << 40;
  }
  inputs.cells.push_back(std::move(cell));
}

}  // namespace

Inputs MakeInputs(Workload workload, std::uint64_t seed, bool smoke) {
  Inputs inputs;
  if (workload == Workload::kPaperTables) {
    AddPaperTables(inputs, seed, smoke);
  } else {
    AddScenario(inputs, workload, seed, smoke);
  }
  inputs.digest = 0xcbf29ce484222325ull;
  for (const synth::SynthWorkload& generated : inputs.traces) {
    inputs.digest = Fnv1a(inputs.digest, synth::WorkloadDigest(generated));
  }
  return inputs;
}

std::vector<trace::ModEvent> ProbeWrites(const ReplayCell& cell) {
  const replay::ReplayConfig& config = cell.config;
  if (!config.explicit_modifications.empty()) {
    return config.explicit_modifications;
  }
  if (config.suppress_generated_modifications) return {};
  const trace::Trace& trace = *config.trace;
  trace::ModifierConfig modifier;
  modifier.duration = trace.duration;
  modifier.num_documents = static_cast<std::uint32_t>(trace.documents.size());
  modifier.mean_lifetime = config.mean_lifetime;
  modifier.seed = config.modifier_seed;
  return trace::GenerateModifierSchedule(modifier);
}

GaugeConfig GaugeFor(Workload workload) {
  switch (workload) {
    case Workload::kPaperTables:
      return {GaugeConfig::Burst::kMemory, 1.6};
    case Workload::kMillionSites:
    case Workload::kEdgeReads:
      return {GaugeConfig::Burst::kMemory, 1.2};
    case Workload::kLiveLoopback:
      return {GaugeConfig::Burst::kLoopback, 1.0};
  }
  return {};
}

Pin PinFor(Workload workload) {
  switch (workload) {
    case Workload::kPaperTables:
      return {9644055497642179182ull, 799545, 237306, 17312};
    case Workload::kMillionSites:
      return {2972421800795384345ull, 200000, 185, 75740};
    case Workload::kEdgeReads:
      return {18413761111317622606ull, 500000, 135616, 0};
    case Workload::kLiveLoopback:
      return {1649036692207434722ull, 0, 0, 0};
  }
  return {};
}

}  // namespace webcc::bench
