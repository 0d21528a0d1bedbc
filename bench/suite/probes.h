// Per-layer probes: each layer's public functions, fed this workload's own
// input stream and timed from outside, one span per timed phase.
//
// Probe times locate cost within a layer; they do not add up to the
// end-to-end ns_per_request, because a probe runs its layer alone, without
// the rest of the replay around it.
#pragma once

#include "bench.h"
#include "replay_run.h"
#include "workloads.h"

namespace webcc::bench {

// Adds trace.*, synth.*, sim.*, http.lookup/insert, consistency.*,
// core.accel_*/prune and outbox.add and net.* metrics. `pass` is the traced
// run's untraced pass (its event counts size the simulator probe).
void RunProbes(const Inputs& inputs, const Pass& pass, Spans& spans,
               RunResult& result);

}  // namespace webcc::bench
