#include "replay_run.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <ostream>
#include <streambuf>
#include <string>

#include "obs/trace_sink.h"
#include "replay/engine.h"

namespace webcc::bench {
namespace {

bool IsStrong(core::Protocol protocol) {
  return protocol == core::Protocol::kPollEveryTime ||
         protocol == core::Protocol::kInvalidation;
}

// Counts events by type without serializing them.
class CountingSink final : public obs::TraceSink {
 public:
  void Emit(const obs::TraceEvent& event) override {
    ++counts_[static_cast<std::size_t>(event.type)];
    ++total_;
    if (event.type == obs::EventType::kImsSent && event.detail == 1) {
      ++lease_renewals_;
    }
    if (event.type == obs::EventType::kRequestServed) {
      ++served_[static_cast<std::size_t>(event.detail) % served_.size()];
    }
  }
  void WriteRaw(std::string_view) override {}

  std::uint64_t Of(obs::EventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }
  std::uint64_t Served(obs::ServeKind kind) const {
    return served_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t lease_renewals() const { return lease_renewals_; }
  std::uint64_t total() const { return total_; }

 private:
  std::array<std::uint64_t, 64> counts_{};
  std::array<std::uint64_t, 3> served_{};
  std::uint64_t lease_renewals_ = 0;
  std::uint64_t total_ = 0;
};

// The DESIGN.md section 8 identities between event counts and counters.
void Reconcile(const std::string& label, const CountingSink& s,
               const replay::ReplayMetrics& m, RunResult& result) {
  using obs::EventType;
  const auto check = [&](const char* what, std::uint64_t events,
                         std::uint64_t counter) {
    result.Check(events == counter,
                 label + ": " + what + " events " + std::to_string(events) +
                     " != counter " + std::to_string(counter));
  };
  check("get_sent", s.Of(EventType::kGetSent), m.get_requests);
  check("ims_sent", s.Of(EventType::kImsSent), m.ims_requests);
  check("lease-renewal ims_sent", s.lease_renewals(), m.lease_renewal_ims);
  check("reply_200", s.Of(EventType::kReply200), m.replies_200);
  check("reply_304", s.Of(EventType::kReply304), m.replies_304);
  check("stale_hit", s.Of(EventType::kStaleHit), m.stale_serves);
  check("modification", s.Of(EventType::kModification),
        m.modifications_applied);
  check("invalidate_generated", s.Of(EventType::kInvalidateGenerated),
        m.invalidations_sent);
  check("invalidate_delivered", s.Of(EventType::kInvalidateDelivered),
        m.invalidations_delivered);
  check("invalidate_refused+gave_up",
        s.Of(EventType::kInvalidateRefused) +
            s.Of(EventType::kInvalidateGaveUp),
        m.invalidations_refused);
  check("eviction", s.Of(EventType::kEviction),
        m.proxy_evictions + m.proxy_oversize_rejections);
  check("request_timeout", s.Of(EventType::kRequestTimeout),
        m.request_timeouts);
  check("invalidate_server", s.Of(EventType::kInvalidateServer),
        m.invsrv_sent);
  check("request_served+timeout",
        s.Of(EventType::kRequestServed) + s.Of(EventType::kRequestTimeout),
        m.requests_issued);
  check("local-hit request_served", s.Served(obs::ServeKind::kLocalHit),
        m.local_hits);
  check("validated request_served", s.Served(obs::ServeKind::kValidated),
        m.validated_hits);
}

// Swallows everything written to it: the JSONL sink's serialization cost
// without the disk.
class DiscardBuffer final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

std::int64_t TimedReplay(const replay::ReplayConfig& config, Spans* spans,
                         replay::ReplayMetrics& out) {
  ScopedSpan span(spans, "replay.RunReplay");
  const std::int64_t start = WallNs();
  out = replay::RunReplay(config);
  return WallNs() - start;
}

Pass RunPass(std::span<const ReplayCell> cells, Spans* spans) {
  Pass pass;
  for (const ReplayCell& cell : cells) {
    replay::ReplayMetrics metrics;
    pass.wall_ns += TimedReplay(cell.config, spans, metrics);
    pass.requests += metrics.requests_issued;
    pass.timeouts += metrics.request_timeouts;
    pass.metrics.push_back(std::move(metrics));
  }
  return pass;
}

}  // namespace

Inputs SetUp(const RunOptions& options, double min_seconds,
              std::vector<Interval>& setups) {
  Inputs inputs;
  const std::int64_t start = WallNs();
  while (setups.size() < kSetups ||
         static_cast<double>(WallNs() - start) / 1e9 < min_seconds) {
    inputs = Inputs();  // free the previous generation before timing the next
    Interval setup{.start_ns = WallNs()};
    inputs = MakeInputs(options.workload, options.seed, options.smoke);
    setup.end_ns = WallNs();
    setups.push_back(setup);
  }
  return inputs;
}

RunResult MeasureReplay(const RunOptions& options, const HostGauge& gauge) {
  RunResult result;
  std::vector<Interval> setups;
  const Inputs inputs =
      SetUp(options, options.smoke ? 0.0 : kSetupSeconds, setups);
  std::vector<double> setup_seconds;
  for (const Interval& setup : setups) {
    setup_seconds.push_back(gauge.ScaledSeconds(setup));
  }

  // Passes are checked as they finish and only the first is kept: a
  // ReplayMetrics holds every latency sample, and retaining one per pass
  // would make peak_rss_mb grow with the number of passes.
  const int min_passes = options.smoke ? 1 : 5;
  int passes = 0;
  Pass first;
  std::vector<double> ns_per_request;
  const std::int64_t start = WallNs();
  while (passes < min_passes ||
         static_cast<double>(WallNs() - start) / 1e9 < options.seconds) {
    Interval window{.start_ns = WallNs()};
    Pass pass = RunPass(inputs.cells, nullptr);
    window.end_ns = WallNs();
    const double scale = gauge.Scale(window);
    ++passes;
    std::fprintf(stderr,
                 "webcc_bench: %s pass %d: %.3f s, %llu requests, scale %.3f\n",
                 std::string(WorkloadName(options.workload)).c_str(), passes,
                 static_cast<double>(pass.wall_ns) / 1e9,
                 static_cast<unsigned long long>(pass.requests), scale);
    ns_per_request.push_back(scale * Ratio(static_cast<double>(pass.wall_ns),
                                           static_cast<double>(pass.requests)));
    result.attempted += pass.requests;
    result.failed += pass.timeouts;
    for (std::size_t c = 0; c < inputs.cells.size(); ++c) {
      const std::string& label = inputs.cells[c].label;
      const replay::ReplayMetrics& m = pass.metrics[c];
      if (IsStrong(inputs.cells[c].config.protocol)) {
        result.Check(m.strong_violations == 0,
                     label + ": " + std::to_string(m.strong_violations) +
                         " strong-consistency violations");
      }
      if (passes > 1) {
        result.Check(replay::SameSimulation(m, first.metrics[c]),
                     label + ": repetition differs from the first");
      }
    }
    if (passes == 1) first = std::move(pass);
  }

  if (options.seed == 1 && !options.smoke) {
    const Pin pin = PinFor(options.workload);
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t invalidations = 0;
    for (const replay::ReplayMetrics& m : first.metrics) {
      requests += m.requests_issued;
      hits += m.cache_hits();
      invalidations += m.invalidations_sent;
    }
    const auto pinned = [&](const char* what, std::uint64_t got,
                            std::uint64_t want) {
      result.Check(got == want, std::string("seed 1 ") + what + " " +
                                    std::to_string(got) + " != pinned " +
                                    std::to_string(want));
    };
    pinned("workload digest", inputs.digest, pin.digest);
    pinned("requests_issued", requests, pin.requests_issued);
    pinned("cache_hits", hits, pin.cache_hits);
    pinned("invalidations_sent", invalidations, pin.invalidations_sent);
  }

  result.Add("ns_per_request", Median(ns_per_request), "ns");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("setup_s", Median(setup_seconds), "s");
  result.AddFileOnly("host_burst_us",
                     gauge.BurstNs({.start_ns = start, .end_ns = WallNs()}) / 1e3,
                     "us");
  return result;
}

Pass TraceReplay(std::span<const ReplayCell> cells, Spans& spans,
                 RunResult& result) {
  Pass pass;
  {
    ScopedSpan span(&spans, "pass.untraced");
    pass = RunPass(cells, &spans);
  }
  result.attempted += pass.requests;
  result.failed += pass.timeouts;

  std::uint64_t events = 0;
  {
    ScopedSpan span(&spans, "pass.counting_sink");
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const ReplayCell& cell = cells[c];
      CountingSink sink;
      replay::ReplayConfig config = cell.config;
      config.trace_sink = &sink;
      replay::ReplayMetrics metrics;
      TimedReplay(config, &spans, metrics);
      Reconcile(cell.label, sink, metrics, result);
      result.Check(replay::SameSimulation(metrics, pass.metrics[c]),
                   cell.label + ": tracing changed the simulation");
      events += sink.total();
    }
  }

  DiscardBuffer discard;
  std::ostream null_stream(&discard);
  obs::JsonlTraceSink jsonl(null_stream);
  std::int64_t jsonl_ns = 0;
  {
    ScopedSpan span(&spans, "pass.jsonl_sink");
    for (const ReplayCell& cell : cells) {
      replay::ReplayConfig config = cell.config;
      config.trace_sink = &jsonl;
      replay::ReplayMetrics metrics;
      jsonl_ns += TimedReplay(config, &spans, metrics);
    }
  }

  // Counters of the untraced pass, summed over cells.
  std::uint64_t requests = 0, sim_events = 0, peak_depth = 0, hits = 0,
                evictions = 0, messages = 0, bytes = 0, samples_held = 0,
                writes = 0, invalidations = 0, frames = 0, coalesced = 0,
                sitelist_bytes = 0, sitelist_entries = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const replay::ReplayMetrics& m = pass.metrics[c];
    requests += m.requests_issued;
    sim_events += m.sim_events_executed;
    peak_depth = std::max<std::uint64_t>(peak_depth, m.sim_peak_queue_depth);
    hits += m.cache_hits();
    evictions += m.proxy_evictions;
    messages += m.total_messages();
    bytes += m.message_bytes;
    samples_held = std::max<std::uint64_t>(
        samples_held,
        m.latency_ms.count() + m.invalidation_time_ms.count() +
            m.batch_flush_ms.count() + m.write_completion_wall_ms.count() +
            m.write_blocked_trace_ms.count() + m.stale_age_ms.count());
    if (cells[c].config.protocol != core::Protocol::kInvalidation) {
      continue;
    }
    writes += m.modifications_applied;
    invalidations += m.invalidations_sent;
    frames += m.invalidation_frames_sent;
    coalesced += m.invalidations_coalesced;
    sitelist_bytes += m.sitelist_storage_bytes;
    sitelist_entries += m.sitelist_entries;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  result.Add("replay.sim_events_per_request", Ratio(d(sim_events), d(requests)),
             "count");
  result.Add("replay.ns_per_sim_event",
             Ratio(static_cast<double>(pass.wall_ns), d(sim_events)), "ns");
  result.Add("replay.sim_peak_queue_depth", d(peak_depth), "count");
  result.Add("http.cache_hit_ratio", Ratio(d(hits), d(requests)), "ratio");
  result.Add("http.evictions_per_request", Ratio(d(evictions), d(requests)),
             "ratio");
  result.Add("core.invalidations_per_write", Ratio(d(invalidations), d(writes)),
             "ratio");
  result.Add("core.sitelist_bytes_per_entry",
             Ratio(d(sitelist_bytes), d(sitelist_entries)), "B");
  result.Add("outbox.frames_per_invalidation",
             Ratio(d(frames), d(invalidations)), "ratio");
  result.Add("outbox.coalesced_per_invalidation",
             Ratio(d(coalesced), d(invalidations)), "ratio");
  result.Add("network.messages_per_request", Ratio(d(messages), d(requests)),
             "ratio");
  result.Add("network.bytes_per_request", Ratio(d(bytes), d(requests)), "B");
  result.Add("stats.latency_samples_held", d(samples_held), "count");
  result.Add("obs.events_per_request", Ratio(d(events), d(requests)), "ratio");
  result.Add("obs.trace_overhead_pct",
             100.0 * Ratio(static_cast<double>(jsonl_ns - pass.wall_ns),
                           static_cast<double>(pass.wall_ns)),
             "%");
  return pass;
}

}  // namespace webcc::bench
