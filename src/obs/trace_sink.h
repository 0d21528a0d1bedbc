// TraceSink: where structured trace events go.
//
// The tracing layer is opt-in and pointer-gated: every instrumented
// component holds a `TraceSink*` that defaults to nullptr, and each emit
// site is a branch-on-null (`obs::Emit(sink_, ...)`). With tracing off the
// whole subsystem costs one predictable untaken branch per event site; the
// cost of tracing on is the benchmark's obs.trace_overhead_pct.
//
// Two concrete sinks:
//  * JsonlTraceSink — serializes each event as one JSON line. URLs and site
//    ids are interned per sink: the first sighting of a string emits an
//    `{"e":"intern","id":N,"n":"..."}` record, subsequent events carry the
//    dense id. A sink's output is therefore self-contained — concatenating
//    the outputs of independent sinks (the replay farm's stream, one sink
//    per replay) yields a valid stream because id scopes restart at each
//    run_begin.
//  * NullTraceSink — accepts and discards; for overhead measurement and for
//    code that wants an always-valid sink reference.
//
// Thread safety: Emit() serializes under an internal mutex, so one sink may
// be shared by the live prototype's threads. The replay engine is single-
// threaded per run and gives each run its own sink (see replay::RunAll),
// so the lock is uncontended on the replay path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/event.h"
#include "util/thread_annotations.h"

namespace webcc::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Records one event. String views in `event` need only live for the call.
  virtual void Emit(const TraceEvent& event) = 0;

  // Appends pre-serialized JSONL produced by another sink of the same
  // format. Sinks that do not store JSONL ignore it.
  virtual void WriteRaw(std::string_view jsonl) = 0;
};

// Branch-on-null emit helper: the only code that runs when tracing is off.
inline void Emit(TraceSink* sink, const TraceEvent& event) {
  if (sink != nullptr) [[unlikely]] {
    sink->Emit(event);
  }
}

class NullTraceSink final : public TraceSink {
 public:
  void Emit(const TraceEvent&) override {}
  void WriteRaw(std::string_view) override {}
};

// Serializes events as JSON lines to a caller-owned ostream.
//
// Event line:   {"t":<at_us>,"e":"<name>"[,"tt":<trace_us>][,"u":<url_id>]
//                [,"s":<site_id>][,"d":<detail>][,"l":"<label>"]}
// Intern line:  {"e":"intern","id":<id>,"n":"<string>"}  (before first use)
//
// Interned-id scopes restart at every kRunBegin so concatenated run streams
// stay self-describing.
class JsonlTraceSink final : public TraceSink {
 public:
  // `out` must outlive the sink. The sink never closes or flushes beyond
  // operator<<; callers flush the stream when the run completes.
  explicit JsonlTraceSink(std::ostream& out) : out_(&out) {}

  void Emit(const TraceEvent& event) override;
  void WriteRaw(std::string_view jsonl) override;

  std::uint64_t events_written() const;

 private:
  // Interns under mu_ (already held by Emit).
  std::uint32_t InternLocked(std::string_view s) WEBCC_REQUIRES(mu_);
  void ResetInternsLocked() WEBCC_REQUIRES(mu_);

  // Heterogeneous lookup: Emit interns string_views without materializing
  // a std::string except on first sighting.
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  mutable util::Mutex mu_;
  // The stream pointer itself is const after construction, but all writes
  // through it serialize under mu_ (pt_guarded_by covers the pointee).
  std::ostream* const out_ WEBCC_PT_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::uint32_t, SvHash, SvEq> interns_
      WEBCC_GUARDED_BY(mu_);
  std::uint64_t events_written_ WEBCC_GUARDED_BY(mu_) = 0;
};

// A JSONL sink buffering into memory, for reading a run's text back.
class BufferTraceSink final : public TraceSink {
 public:
  BufferTraceSink() : jsonl_(buffer_) {}

  void Emit(const TraceEvent& event) override { jsonl_.Emit(event); }
  void WriteRaw(std::string_view jsonl) override { jsonl_.WriteRaw(jsonl); }

  // The buffered JSONL text (valid stream on its own).
  std::string TakeText() { return std::move(buffer_).str(); }
  std::string Text() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  JsonlTraceSink jsonl_;
};

// Escapes `s` per JSON string rules into `out` (no surrounding quotes).
void AppendJsonEscaped(std::string& out, std::string_view s);

}  // namespace webcc::obs
