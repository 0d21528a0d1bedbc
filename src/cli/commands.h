// Subcommand implementations for the `webcc` command-line tool.
//
// Each command takes parsed flags plus output streams and returns a
// process exit code, so the whole tool is unit-testable; tools/webcc.cc is
// a thin dispatcher.
//
//   webcc generate  --preset SASK --out sask.log
//   webcc generate  --requests 50000 --documents 2000 --clients 800
//                   --duration-hours 24 --out synth.log
//   webcc summarize --in access.log
//   webcc filter    --in client.log --out server.log --browser-ttl-minutes 60
//   webcc replay    --in access.log --protocol invalidation
//                   --lifetime-days 14 [--lease-days 3]
//                   [--lease none|fixed|two-tier] [--two-tier]
//                   [--multicast] [--decoupled] [--cache-mb 128]
//   webcc protocols                      # list protocol names
#pragma once

#include <iosfwd>

#include "cli/flags.h"
#include "core/policy.h"

namespace webcc::cli {

// Maps "ttl" / "poll" / "invalidation" / "pcv" / "psi" (plus long aliases
// and the core::ToString display names, so parse → ToString → parse
// round-trips).
std::optional<core::Protocol> ParseProtocol(const std::string& name);

// Maps "none" / "fixed" / "two-tier" (and the core::ToString names).
std::optional<core::LeaseMode> ParseLeaseMode(const std::string& name);

int RunGenerate(const Flags& flags, std::ostream& out, std::ostream& err);
int RunSummarize(const Flags& flags, std::ostream& out, std::ostream& err);
int RunFilter(const Flags& flags, std::ostream& out, std::ostream& err);
int RunReplayCommand(const Flags& flags, std::ostream& out, std::ostream& err);
// `webcc synth`: build a scenario (JSON file or flags), then print its
// canonical config, its workload digest, write it as CLF, and/or replay it
// in-process — the CLI face of src/synth/.
int RunSynth(const Flags& flags, std::ostream& out, std::ostream& err);
// `webcc trace summarize --in FILE`: aggregates a --trace-out JSONL stream.
int RunTraceCommand(const Flags& flags, std::ostream& out, std::ostream& err);
int RunProtocols(std::ostream& out);

// Dispatches on flags.positional()[0]; prints usage on errors.
int RunCli(const Flags& flags, std::ostream& out, std::ostream& err);

// The usage text.
void PrintUsage(std::ostream& out);

}  // namespace webcc::cli
