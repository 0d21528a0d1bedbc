// Reader side of the JSONL trace format (see trace_sink.h for the writer).
//
// Backs `webcc trace summarize`: streams a trace file once, tallies events
// by type, tracks the clock span and the intern table size, and verifies
// structural invariants (every id referenced was interned first within the
// current run scope). The parser accepts exactly what JsonlTraceSink writes;
// it is not a general JSON parser.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <streambuf>
#include <string>
#include <string_view>

#include "obs/event.h"

namespace webcc::obs {

// Aggregate view of one JSONL trace stream (possibly many concatenated runs).
struct TraceSummary {
  std::uint64_t total_events = 0;    // event lines (interns excluded)
  std::uint64_t intern_lines = 0;    // {"e":"intern",...} lines
  std::uint64_t runs = 0;            // run_begin count
  std::uint64_t malformed_lines = 0; // lines the parser could not read
  std::uint64_t unknown_events = 0;  // well-formed lines with unknown "e"
  std::uint64_t undefined_ids = 0;   // u/s referencing an id never interned
  Time first_at = -1;                // smallest "t" seen; -1 when no events
  Time last_at = -1;                 // largest "t" seen; -1 when no events
  // Per-type tally, indexed by EventType.
  std::array<std::uint64_t, 32> by_type{};

  std::uint64_t CountOf(EventType type) const {
    return by_type[static_cast<std::size_t>(type)];
  }
};

// Streams `in` line by line and accumulates into a summary.
TraceSummary SummarizeTrace(std::istream& in);

// Renders a human-readable report: totals, clock span, and a per-type table
// sorted by count (descending, name ascending on ties).
void WriteTraceSummary(std::ostream& out, const TraceSummary& summary);

// FNV-1a 64-bit over the exact bytes of a JSONL trace. Two runs that produce
// byte-identical traces produce equal digests; this is what the fault golden
// corpus locks (`webcc replay --trace-out` + tests/data/fault_plans).
std::uint64_t DigestJsonl(std::string_view text);

// An output streambuf that hashes the bytes written through it and keeps
// none: digest() equals DigestJsonl over the same bytes, so a trace can be
// hashed as it is emitted instead of held (`webcc synth --replay`).
class DigestStreambuf final : public std::streambuf {
 public:
  std::uint64_t digest() const { return hash_; }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize size) override;
  int_type overflow(int_type c) override;

 private:
  std::uint64_t hash_ = DigestJsonl({});
};

}  // namespace webcc::obs
