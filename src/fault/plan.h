// Deterministic fault plans: the declarative input of the fault-injection
// layer (the paper's Section 4 failure scenarios, made replayable).
//
// A FaultPlan is a list of timed events on the trace clock — crash/restart
// of a proxy or the server, timed partitions, and link-fault windows during
// which messages on chosen site pairs are dropped, duplicated, or delayed
// with configured probabilities. Plans are pure data and the replay's only
// failure input: the engine expands each crash/partition event into an
// onset and a recovery step, and hands link-fault windows to a FaultClock
// (clock.h) whose seeded RNG makes every perturbation decision
// reproducible bit-for-bit.
//
// Plans round-trip through a small JSON dialect (times in seconds, the
// subset this file's parser accepts is exactly what ToJson emits), so the
// golden corpus under tests/data/fault_plans/ is both human-editable and
// regression-locked.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/time.h"

namespace webcc::fault {

enum class FaultKind : std::uint8_t {
  kProxyCrash,   // proxy `target` down for [at, at+duration)
  kServerCrash,  // server + accelerator down for [at, at+duration)
  kPartition,    // link proxy `target` <-> server cut for [at, at+duration)
                 //   target -1 = every proxy-server link
  kLinkFault,    // probabilistic drop/dup/delay window on `target`'s links
                 //   target -1 = every link
};

// Stable wire names ("proxy_crash", ...) used in the JSON form.
std::string_view FaultKindName(FaultKind kind);
bool ParseFaultKindName(std::string_view name, FaultKind& out);

struct FaultEvent {
  Time at = 0;            // trace time the fault begins
  FaultKind kind = FaultKind::kPartition;
  int target = -1;        // proxy index; -1 = all / not applicable
  Time duration = 0;      // how long the fault lasts (half-open window)
  // kLinkFault only:
  double drop = 0.0;       // per-message loss probability
  double duplicate = 0.0;  // per-message duplication probability
  Time extra_delay = 0;    // fixed added latency while the window is active
};

struct FaultPlan {
  std::string name;  // free-form label, carried into traces
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

// The shape of a Random() plan: enough of each fault kind to exercise it
// within a several-hour trace.
inline constexpr int kRandomCrashEvents = 2;      // proxy crash/restart pairs
inline constexpr int kRandomPartitionEvents = 2;  // timed partitions
inline constexpr int kRandomLinkWindows = 2;      // drop/dup/delay windows
// Every event lasts between these two.
inline constexpr Time kRandomMinDuration = 30 * kSecond;
inline constexpr Time kRandomMaxDuration = 15 * kMinute;
// A link window's loss and duplication probabilities and added latency stay
// at or below these.
inline constexpr double kRandomMaxDrop = 0.3;
inline constexpr double kRandomMaxDuplicate = 0.15;
inline constexpr Time kRandomMaxExtraDelay = 50 * kMillisecond;

// Where Random() places a plan: the trace it must fit and the proxies it
// may target.
struct RandomPlanConfig {
  Time horizon = 3 * kHour;        // events start within [0, horizon)
  int clients = 60;                // proxy indices drawn from [0, clients)
  bool allow_server_crash = true;  // at most one server crash per plan
};

// Deterministic plan generation: the same (config, seed) always yields the
// same plan, which is what lets `--fault-seed N` replay bit-identically.
FaultPlan Random(const RandomPlanConfig& config, std::uint64_t seed);

// Sorts events by (at, kind, target) — the canonical order the engine and
// ToJson both rely on.
void Canonicalize(FaultPlan& plan);

// Serializes the plan (canonical order, times as fractional seconds).
std::string ToJson(const FaultPlan& plan);

// Parses what ToJson writes (plus hand-edited goldens in the same dialect).
// On failure returns false and sets `error` to a one-line description.
bool FromJson(std::string_view text, FaultPlan& out, std::string& error);

// A golden-corpus file: a plan plus an "expect" object of metric name ->
// raw JSON value text (numbers kept as text so 64-bit digests survive).
struct FaultPlanFile {
  FaultPlan plan;
  std::map<std::string, std::string> expect;
};

bool ParseFaultPlanFile(std::string_view text, FaultPlanFile& out,
                        std::string& error);

}  // namespace webcc::fault
