// Replay farm: one batch of independent replays, run concurrently.
//
// Parallelism lives strictly *across* replays. Each replay is the same
// deterministic single-threaded simulation `RunReplay` always was — one
// Engine, one Simulator, no shared mutable state between workers — so a
// farmed run produces bit-identical ReplayMetrics regardless of worker
// count or completion order (see SameSimulation). The only sharing is the
// immutable inputs: configs reference their traces by pointer, so one
// parsed trace (or one generated scenario) feeds every cell of a sweep.
#pragma once

#include <iosfwd>
#include <vector>

#include "replay/config.h"
#include "replay/metrics.h"

namespace webcc::replay {

// Runs every config and returns the metrics in submission order, never in
// completion order, so table output built from them is byte-identical to a
// serial loop. `workers` = 0 uses the hardware concurrency; the calling
// thread is one of the workers, and no more run than there are configs.
//
// With `jsonl` set, each replay writes its trace through its own
// JsonlTraceSink (overriding any trace_sink on its config), and `jsonl`
// receives the streams in submission order. A replay that starts once every
// earlier replay is written streams straight into `jsonl`; one that starts
// sooner buffers privately until they are. The stream is therefore
// byte-identical for any worker count, and nothing is buffered at one
// worker. Every replay's JSONL is self-contained (intern ids restart at
// run_begin), so the concatenation is a valid stream.
//
// Everything the configs point at must stay alive until RunAll returns.
std::vector<ReplayMetrics> RunAll(const std::vector<ReplayConfig>& configs,
                                  unsigned workers = 0,
                                  std::ostream* jsonl = nullptr);

}  // namespace webcc::replay
