// The trace synthesizer: ScenarioConfig -> SynthWorkload, a pure function.
//
// Generate() is deterministic in the config alone (the seed is part of the
// config), so any process — a bench, a different machine — regenerates the
// identical workload from the same JSON text. A replay batch generates a
// scenario once and shares the workload read-only across its workers.
//
// Memory is O(sites + documents + requests): one global recency stack (not
// per-site state), CDF tables over documents/sites, and the output arrays
// themselves — a million-site scenario fits comfortably.
#pragma once

#include <cstdint>
#include <vector>

#include "synth/scenario.h"
#include "trace/modifier.h"
#include "trace/record.h"

namespace webcc::synth {

struct SynthWorkload {
  trace::Trace trace;
  // Write schedule: churn creations plus the Zipf-drawn modification
  // stream, sorted by time. Feeds ReplayConfig::explicit_modifications.
  std::vector<trace::ModEvent> writes;
};

// Synthesizes the workload. The config must satisfy Validate() == "" —
// anything FromJson accepts qualifies; hand-built configs are checked.
SynthWorkload Generate(const ScenarioConfig& config);

// FNV-1a over a canonical byte serialization of the whole workload
// (documents, clients, request records, write schedule). Equal digests are
// the determinism contract the tests and the CI synth gate assert.
std::uint64_t WorkloadDigest(const SynthWorkload& workload);

}  // namespace webcc::synth
