#include "probes.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <variant>

#include "core/consistency/policy.h"
#include "core/outbox.h"
#include "core/sharded_accelerator.h"
#include "http/cache_key.h"
#include "http/document_store.h"
#include "http/proxy_cache.h"
#include "net/wire.h"
#include "sim/simulator.h"
#include "synth/generate.h"
#include "trace/workload.h"

namespace webcc::bench {
namespace {

// Calls per timed phase: long enough that the two clock reads are noise.
constexpr std::size_t kChunk = 4096;

// Defeats dead-code elimination of probe results.
volatile std::uint64_t g_sink = 0;

// Sums a probe's phases: ns_per_call() is the metric.
struct Tally {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  void Add(std::int64_t phase_ns, std::uint64_t phase_calls) {
    ns += phase_ns;
    calls += phase_calls;
  }
  double ns_per_call() const {
    return Ratio(static_cast<double>(ns), static_cast<double>(calls));
  }
};

// trace: the Table 2 generator, on paper_tables' presets; synth: the
// scenario generator, on the other workloads' scenario. Each generator is
// timed only on the workload that uses it and reads 0 elsewhere.
void ProbeGenerators(const Inputs& inputs, Spans& spans, RunResult& result) {
  Tally trace_tally;
  for (const trace::WorkloadConfig& config : inputs.trace_configs) {
    std::size_t records = 0;
    const std::int64_t ns =
        TimePhase(spans, "probe.trace.GenerateTrace", config.total_requests,
                  [&] { records = trace::GenerateTrace(config).records.size(); });
    trace_tally.Add(ns, records);
  }
  Tally synth_tally;
  for (const synth::ScenarioConfig& config : inputs.scenarios) {
    std::size_t records = 0;
    const std::int64_t ns =
        TimePhase(spans, "probe.synth.Generate", config.requests, [&] {
          const synth::SynthWorkload generated = synth::Generate(config);
          records = generated.trace.records.size() + generated.writes.size();
        });
    synth_tally.Add(ns, records);
  }
  result.Add("trace.generate_ns_per_record", trace_tally.ns_per_call(), "ns");
  result.Add("synth.generate_ns_per_record", synth_tally.ns_per_call(), "ns");
}

// The event queue at the replay's own size: `depth` pending events, each
// executed event scheduling one more until `events` have run. 0 for a
// workload that replays nothing.
void ProbeSimulator(const Pass& pass, Spans& spans, RunResult& result) {
  std::uint64_t depth = 1;
  std::uint64_t events = 0;
  for (const replay::ReplayMetrics& m : pass.metrics) {
    depth = std::max<std::uint64_t>(depth, m.sim_peak_queue_depth);
    events += m.sim_events_executed;
  }
  if (events == 0) {
    result.Add("sim.ns_per_event", 0.0, "ns");
    return;
  }
  events = std::min<std::uint64_t>(events, 4000000);
  struct State {
    sim::Simulator sim;
    std::uint64_t remaining = 0;
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t Next() {  // xorshift64
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    }
    void Fire() {
      if (remaining == 0) return;
      --remaining;
      sim.After(static_cast<Time>(1 + Next() % 1000), [this] { Fire(); });
    }
  };
  auto state = std::make_unique<State>();
  state->remaining = events;
  state->sim.Reserve(depth + 16);
  State* s = state.get();
  const std::int64_t ns =
      TimePhase(spans, "probe.sim.AtRun", events + depth, [&] {
        for (std::uint64_t i = 0; i < depth; ++i) {
          s->sim.At(static_cast<Time>(s->Next() % 1000), [s] { s->Fire(); });
        }
        s->sim.Run();
      });
  result.Add("sim.ns_per_event",
             Ratio(static_cast<double>(ns),
                   static_cast<double>(state->sim.executed())),
             "ns");
}

core::consistency::EntryMeta MetaOf(const http::CacheEntry& entry) {
  core::consistency::EntryMeta meta;
  meta.last_modified = entry.last_modified;
  meta.fetched_at = entry.fetched_at;
  meta.ttl_expires = entry.ttl_expires;
  meta.lease_expires = entry.lease_expires;
  meta.questionable = entry.questionable;
  return meta;
}

// Every document of the probes is one day old when the trace starts.
constexpr Time kDocumentAge = kDay;

struct HitSample {
  core::consistency::EntryMeta entry;
  Time now = 0;
};

// What the cache probe hands to the later probes.
struct CacheProbeOutput {
  std::vector<HitSample> hits;
  std::vector<std::size_t> misses;  // record indices, in trace order
};

// One ProxyCache per pseudo-client with the cell's budget and policy,
// driven by the url@client stream: lookups of a chunk, then inserts of its
// misses.
CacheProbeOutput ProbeCache(const ReplayCell& cell, Spans& spans,
                            Tally& lookup, Tally& insert) {
  const replay::ReplayConfig& config = cell.config;
  const trace::Trace& trace = *config.trace;
  const auto policy =
      core::consistency::MakePolicy(config.protocol, config.ttl);
  std::vector<std::unique_ptr<http::ProxyCache>> caches;
  for (std::uint32_t i = 0; i < config.num_pseudo_clients; ++i) {
    caches.push_back(std::make_unique<http::ProxyCache>(
        config.proxy_cache_bytes, config.eviction_policy));
  }
  CacheProbeOutput out;
  std::vector<std::string> keys(kChunk);
  std::vector<http::CacheEntry*> found(kChunk);
  std::vector<http::CacheEntry> entries;
  for (std::size_t begin = 0; begin < trace.records.size(); begin += kChunk) {
    const std::size_t end = std::min(trace.records.size(), begin + kChunk);
    for (std::size_t i = begin; i < end; ++i) {
      const trace::TraceRecord& r = trace.records[i];
      keys[i - begin] = http::ComposeCacheKey(trace.documents[r.doc].path,
                                              trace.clients[r.client]);
    }
    lookup.Add(TimePhase(spans, "probe.http.Lookup", end - begin,
                         [&] {
                           for (std::size_t i = begin; i < end; ++i) {
                             const trace::TraceRecord& r = trace.records[i];
                             found[i - begin] =
                                 caches[r.client % caches.size()]->Lookup(
                                     keys[i - begin], r.timestamp);
                           }
                         }),
               end - begin);
    entries.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const trace::TraceRecord& r = trace.records[i];
      if (found[i - begin] != nullptr) {
        out.hits.push_back({MetaOf(*found[i - begin]), r.timestamp});
        continue;
      }
      out.misses.push_back(i);
      const trace::DocumentInfo& doc = trace.documents[r.doc];
      core::consistency::ReplyMeta reply;
      reply.last_modified = -kDocumentAge;
      const core::consistency::InsertDecision decision =
          policy->OnMissReply(reply, r.timestamp);
      http::CacheEntry entry;
      entry.key = keys[i - begin];
      entry.url = doc.path;
      entry.owner = trace.clients[r.client];
      entry.size_bytes = doc.size_bytes;
      entry.last_modified = reply.last_modified;
      entry.fetched_at = r.timestamp;
      entry.ttl_expires = decision.ttl_expires;
      entry.lease_expires = decision.lease_expires;
      entries.push_back(std::move(entry));
    }
    if (entries.empty()) continue;
    const std::size_t first_miss = out.misses.size() - entries.size();
    insert.Add(TimePhase(spans, "probe.http.Insert", entries.size(),
                         [&] {
                           for (std::size_t k = 0; k < entries.size(); ++k) {
                             const trace::TraceRecord& r =
                                 trace.records[out.misses[first_miss + k]];
                             caches[r.client % caches.size()]->Insert(
                                 std::move(entries[k]), r.timestamp);
                           }
                         }),
               entries.size());
  }
  return out;
}

// OnHit on the cache probe's hits and OnMissReply on its misses, under
// every protocol the workload replays.
void ProbeConsistency(const Inputs& inputs, const ReplayCell& cell,
                      const CacheProbeOutput& cache, Spans& spans,
                      Tally& tally) {
  std::set<core::Protocol> protocols;
  for (const ReplayCell& c : inputs.cells) protocols.insert(c.config.protocol);
  const trace::Trace& trace = *cell.config.trace;
  for (const core::Protocol protocol : protocols) {
    const auto policy = core::consistency::MakePolicy(protocol, cell.config.ttl);
    std::uint64_t checksum = 0;
    tally.Add(TimePhase(spans, "probe.consistency.OnHit", cache.hits.size(),
                        [&] {
                          for (const HitSample& hit : cache.hits) {
                            const auto decision =
                                policy->OnHit(hit.entry, hit.now);
                            checksum += static_cast<std::uint64_t>(
                                            decision.action) +
                                        (decision.lease_renewal ? 2 : 0);
                          }
                        }),
              cache.hits.size());
    core::consistency::ReplyMeta reply;
    reply.last_modified = -kDocumentAge;
    tally.Add(
        TimePhase(spans, "probe.consistency.OnMissReply", cache.misses.size(),
                  [&] {
                    for (const std::size_t i : cache.misses) {
                      const auto decision = policy->OnMissReply(
                          reply, trace.records[i].timestamp);
                      checksum += static_cast<std::uint64_t>(
                          decision.ttl_expires ^ decision.lease_expires);
                    }
                  }),
        cache.misses.size());
    g_sink = g_sink + checksum;
  }
}

struct QueuedInvalidation {
  std::string site;
  std::string url;
  std::uint64_t write_id = 0;
  Time at = 0;
};

// A 4-shard accelerator fed the cache probe's misses and the write stream
// in time order, pruning lapsed leases before every notify as the live
// server does. Leases are fixed at 1/16 of the trace so that prune has
// work on every workload with writes.
std::vector<QueuedInvalidation> ProbeAccelerator(
    const ReplayCell& cell, const CacheProbeOutput& cache, Spans& spans,
    Tally& request_tally, Tally& notify_tally, Tally& prune_tally) {
  const trace::Trace& trace = *cell.config.trace;
  http::DocumentStore store;
  for (const trace::DocumentInfo& doc : trace.documents) {
    store.Add(doc.path, doc.size_bytes, -kDocumentAge);
  }
  core::LeaseConfig lease;
  lease.mode = core::LeaseMode::kFixed;
  lease.duration = std::max<Time>(kMinute, trace.duration / 16);
  core::ShardedAccelerator accel(store, lease, 4);
  const std::vector<trace::ModEvent> writes = ProbeWrites(cell);

  std::vector<QueuedInvalidation> queued;
  std::vector<net::Request> requests;
  std::size_t next_miss = 0;
  for (std::size_t w = 0; w <= writes.size(); ++w) {
    const Time until = w < writes.size() ? writes[w].at
                                         : std::numeric_limits<Time>::max();
    // Requests due before this write, in chunks.
    while (next_miss < cache.misses.size() &&
           trace.records[cache.misses[next_miss]].timestamp <= until) {
      requests.clear();
      std::vector<Time> at;
      while (next_miss < cache.misses.size() && requests.size() < kChunk) {
        const trace::TraceRecord& r = trace.records[cache.misses[next_miss]];
        if (r.timestamp > until) break;
        net::Request request;
        request.url = trace.documents[r.doc].path;
        request.client_id = trace.clients[r.client];
        requests.push_back(std::move(request));
        at.push_back(r.timestamp);
        ++next_miss;
      }
      std::uint64_t served = 0;
      request_tally.Add(
          TimePhase(spans, "probe.core.HandleRequest", requests.size(),
                    [&] {
                      for (std::size_t k = 0; k < requests.size(); ++k) {
                        served += accel.HandleRequest(requests[k], at[k])
                                      .has_value();
                      }
                    }),
          requests.size());
      g_sink = g_sink + served;
    }
    if (w == writes.size()) break;
    const trace::ModEvent& write = writes[w];
    const std::string& path = trace.documents[write.doc].path;
    store.Touch(path, write.at);
    std::size_t expired = 0;
    prune_tally.ns += TimePhase(spans, "probe.core.PruneExpired", 1, [&] {
      expired = accel.PruneExpired(write.at);
    });
    prune_tally.calls += expired;
    std::vector<net::Invalidation> out;
    const std::int64_t ns = TimePhase(spans, "probe.core.HandleNotify", 1, [&] {
      out = accel.HandleNotify(net::Notify{path}, write.at);
    });
    notify_tally.Add(ns, out.size());
    for (net::Invalidation& invalidation : out) {
      queued.push_back({std::move(invalidation.client_id),
                        std::move(invalidation.url), w, write.at});
    }
  }
  return queued;
}

// The outbox between detection and the sender: Add every invalidation,
// draining whenever 50 ms of trace time have passed since the last drain.
std::vector<core::InvalidationOutbox::Batch> ProbeOutbox(
    const std::vector<QueuedInvalidation>& queued, Spans& spans,
    Tally& tally) {
  constexpr Time kWindow = 50 * kMillisecond;
  core::InvalidationOutbox outbox;
  std::vector<core::InvalidationOutbox::Batch> sample;
  Time next_drain = queued.empty() ? 0 : queued.front().at + kWindow;
  std::size_t begin = 0;
  while (begin < queued.size()) {
    if (queued[begin].at >= next_drain) {
      for (auto& batch : outbox.Drain()) {
        if (sample.size() < 20000) sample.push_back(std::move(batch));
      }
      next_drain = queued[begin].at + kWindow;
    }
    std::size_t end = begin;
    while (end < queued.size() && end - begin < kChunk &&
           queued[end].at < next_drain) {
      ++end;
    }
    std::uint64_t coalesced = 0;
    tally.Add(TimePhase(spans, "probe.outbox.Add", end - begin,
                        [&] {
                          for (std::size_t i = begin; i < end; ++i) {
                            const QueuedInvalidation& q = queued[i];
                            coalesced +=
                                outbox.Add(q.site, q.url, q.write_id, q.at);
                          }
                        }),
              end - begin);
    g_sink = g_sink + coalesced;
    begin = end;
  }
  for (auto& batch : outbox.Drain()) {
    if (sample.size() < 20000) sample.push_back(std::move(batch));
  }
  return sample;
}

// The wire codec over the workload's request and reply lines (first 100k
// records) and the outbox probe's INVB frames.
void ProbeCodec(const ReplayCell& cell,
                const std::vector<core::InvalidationOutbox::Batch>& batches,
                Spans& spans, Tally& encode, Tally& decode,
                RunResult& result) {
  const trace::Trace& trace = *cell.config.trace;
  std::vector<net::Message> messages;
  const std::size_t n = std::min<std::size_t>(trace.records.size(), 100000);
  for (std::size_t i = 0; i < n; ++i) {
    const trace::TraceRecord& r = trace.records[i];
    net::Request request;
    request.url = trace.documents[r.doc].path;
    request.client_id = trace.clients[r.client];
    messages.emplace_back(std::move(request));
    net::Reply reply;
    reply.url = trace.documents[r.doc].path;
    reply.body_bytes = trace.documents[r.doc].size_bytes;
    reply.last_modified = r.timestamp - kDocumentAge;
    reply.version = 1 + i % 7;
    messages.emplace_back(std::move(reply));
  }
  for (const core::InvalidationOutbox::Batch& batch : batches) {
    messages.emplace_back(net::BatchInvalidation{batch.site, batch.urls});
  }
  std::vector<std::string> lines;
  lines.reserve(messages.size());
  encode.Add(TimePhase(spans, "probe.net.EncodeLine", messages.size(),
                       [&] {
                         for (const net::Message& message : messages) {
                           lines.push_back(net::EncodeLine(message));
                         }
                       }),
             messages.size());
  std::size_t decoded = 0;
  decode.Add(TimePhase(spans, "probe.net.DecodeLine", lines.size(),
                       [&] {
                         for (const std::string& line : lines) {
                           decoded += net::DecodeLine(line).has_value();
                         }
                       }),
             lines.size());
  result.Check(decoded == lines.size(),
               cell.label + ": " + std::to_string(lines.size() - decoded) +
                   " encoded lines failed to decode");
}

}  // namespace

void RunProbes(const Inputs& inputs, const Pass& pass, Spans& spans,
               RunResult& result) {
  {
    ScopedSpan span(&spans, "probe.generators");
    ProbeGenerators(inputs, spans, result);
  }
  {
    ScopedSpan span(&spans, "probe.sim");
    ProbeSimulator(pass, spans, result);
  }
  Tally lookup, insert, decision, request, notify, prune, add, encode, decode;
  for (const ReplayCell& cell : inputs.cells) {
    // One probe stream per trace: paper_tables replays each row under
    // three protocols, and its invalidation cell carries the row's config.
    if (cell.config.protocol != core::Protocol::kInvalidation) continue;
    ScopedSpan span(&spans, "probe.cell");
    const CacheProbeOutput cache = ProbeCache(cell, spans, lookup, insert);
    ProbeConsistency(inputs, cell, cache, spans, decision);
    const std::vector<QueuedInvalidation> queued =
        ProbeAccelerator(cell, cache, spans, request, notify, prune);
    const auto batches = ProbeOutbox(queued, spans, add);
    ProbeCodec(cell, batches, spans, encode, decode, result);
  }
  result.Add("http.lookup_ns", lookup.ns_per_call(), "ns");
  result.Add("http.insert_ns", insert.ns_per_call(), "ns");
  result.Add("consistency.decision_ns", decision.ns_per_call(), "ns");
  result.Add("core.accel_request_ns", request.ns_per_call(), "ns");
  result.Add("core.accel_notify_ns_per_invalidation", notify.ns_per_call(),
             "ns");
  result.Add("core.prune_ns_per_expired", prune.ns_per_call(), "ns");
  result.Add("outbox.add_ns", add.ns_per_call(), "ns");
  result.Add("net.encode_ns", encode.ns_per_call(), "ns");
  result.Add("net.decode_ns", decode.ns_per_call(), "ns");
}

}  // namespace webcc::bench
