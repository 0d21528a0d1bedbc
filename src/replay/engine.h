// The trace-replay engine: Section 5.1's methodology as a deterministic
// discrete-event simulation.
//
// Topology: `num_pseudo_clients` pseudo-client workstations, each running a
// proxy cache and replaying the real clients assigned to it (clientid mod
// num_pseudo_clients), plus one pseudo-server running the origin server,
// the accelerator (in invalidation mode) and the modifier process. A time
// coordinator advances trace time in lock-step intervals; within an
// interval each pseudo-client issues its requests sequentially, waiting for
// each reply, and the modifier applies its touches, each followed by a
// check-in notification.
//
// Two clocks:
//  * trace time  — the trace's own timestamps; drives TTLs, leases,
//    modification times and If-Modified-Since comparisons.
//  * wall time   — the simulator clock; drives latencies, queueing, and
//    utilization, compressed relative to trace time exactly as the paper's
//    replay was.
#pragma once

#include "replay/config.h"
#include "replay/metrics.h"

namespace webcc::replay {

// Runs a full replay; deterministic for a given config (including seeds).
ReplayMetrics RunReplay(const ReplayConfig& config);

}  // namespace webcc::replay
