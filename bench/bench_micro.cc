// Microbenchmarks (google-benchmark) for the hot data structures and codecs
// underlying the replay engine and live prototype.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/accelerator.h"
#include "core/analysis.h"
#include "core/intern.h"
#include "core/invalidation_table.h"
#include "http/document_store.h"
#include "http/proxy_cache.h"
#include "net/wire.h"
#include "replay/engine.h"
#include "replay/experiments.h"
#include "sim/simulator.h"
#include "trace/presets.h"
#include "trace/workload.h"
#include "util/distributions.h"
#include "util/rng.h"

using namespace webcc;

namespace {

// --- invalidation table -----------------------------------------------------------

void BM_InvalidationTableRegister(benchmark::State& state) {
  core::InvalidationTable table(core::LeaseConfig{});
  std::vector<std::string> clients;
  for (int i = 0; i < 1024; ++i) {
    clients.push_back("10.0." + std::to_string(i / 256) + "." +
                      std::to_string(i % 256));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    table.Register("/doc", clients[i++ & 1023], net::MessageType::kGet, 0);
  }
}
BENCHMARK(BM_InvalidationTableRegister);

void BM_InvalidationTableTakeSites(benchmark::State& state) {
  const auto list_length = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    core::InvalidationTable table(core::LeaseConfig{});
    for (int i = 0; i < list_length; ++i) {
      table.Register("/doc", "client-" + std::to_string(i),
                     net::MessageType::kGet, 0);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(table.TakeSitesForInvalidation("/doc", 0));
  }
  state.SetItemsProcessed(state.iterations() * list_length);
}
BENCHMARK(BM_InvalidationTableTakeSites)->Arg(16)->Arg(256)->Arg(4096);

// --- proxy cache -------------------------------------------------------------------

http::CacheEntry MicroEntry(int i, Time ttl) {
  http::CacheEntry entry;
  entry.key = "/doc" + std::to_string(i) + "@c";
  entry.url = "/doc" + std::to_string(i);
  entry.owner = "c";
  entry.size_bytes = 4096;
  entry.version = 1;
  entry.ttl_expires = ttl;
  return entry;
}

void BM_ProxyCacheLookupHit(benchmark::State& state) {
  http::ProxyCache cache(1 << 26, http::ReplacementPolicy::kLru);
  for (int i = 0; i < 4096; ++i) cache.Insert(MicroEntry(i, 1 << 20), 0);
  util::Rng rng(1);
  for (auto _ : state) {
    const std::string key =
        "/doc" + std::to_string(rng.NextBelow(4096)) + "@c";
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
}
BENCHMARK(BM_ProxyCacheLookupHit);

void BM_ProxyCacheInsertWithEviction(benchmark::State& state) {
  // Cache holds 1024 entries; every insert evicts.
  http::ProxyCache cache(4096 * 1024, http::ReplacementPolicy::kLru);
  int i = 0;
  for (auto _ : state) {
    cache.Insert(MicroEntry(i++, 1 << 20), 0);
  }
}
BENCHMARK(BM_ProxyCacheInsertWithEviction);

void BM_ProxyCacheExpiredFirstEviction(benchmark::State& state) {
  http::ProxyCache cache(4096 * 1024,
                         http::ReplacementPolicy::kExpiredFirstLru);
  int i = 0;
  for (auto _ : state) {
    // Half the entries are already expired at insertion time of later ones.
    cache.Insert(MicroEntry(i, (i % 2 == 0) ? i : 1 << 30), i);
    ++i;
  }
}
BENCHMARK(BM_ProxyCacheExpiredFirstEviction);

// --- eviction kernel ---------------------------------------------------------------

// 1024-entry capacity, every insert evicts, every other entry already
// expired (the stream where the expired-first branch actually runs).
Time StreamTtl(int i) { return (i % 2 == 0) ? Time(i) : Time(1) << 30; }

template <http::ReplacementPolicy P>
void BM_CacheInsertEvict(benchmark::State& state) {
  http::ProxyCache cache(4096 * 1024, P);
  int i = 0;
  for (auto _ : state) {
    cache.Insert(MicroEntry(i, StreamTtl(i)), i);
    ++i;
  }
}
BENCHMARK_TEMPLATE(BM_CacheInsertEvict, http::ReplacementPolicy::kLru);
BENCHMARK_TEMPLATE(BM_CacheInsertEvict,
                   http::ReplacementPolicy::kExpiredFirstLru);
BENCHMARK_TEMPLATE(BM_CacheInsertEvict, http::ReplacementPolicy::kGds);

void BM_CacheLookupHit(benchmark::State& state) {
  http::ProxyCache cache(1 << 26, http::ReplacementPolicy::kExpiredFirstLru);
  for (int i = 0; i < 4096; ++i) cache.Insert(MicroEntry(i, 1 << 20), 0);
  util::Rng rng(1);
  for (auto _ : state) {
    const std::string key =
        "/doc" + std::to_string(rng.NextBelow(4096)) + "@c";
    benchmark::DoNotOptimize(cache.Lookup(key));
  }
}
BENCHMARK(BM_CacheLookupHit);

// --- simulator ------------------------------------------------------------------------

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < events; ++i) {
      sim.At((i * 7919) % 100000, [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1024)->Arg(65536);

// --- string interner --------------------------------------------------------------------

void BM_InternerInternHit(benchmark::State& state) {
  core::Interner interner;
  std::vector<std::string> urls;
  for (int i = 0; i < 4096; ++i) {
    urls.push_back("/docs/" + std::to_string(i) + ".html");
    interner.Intern(urls.back());
  }
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.Intern(urls[rng.NextBelow(4096)]));
  }
}
BENCHMARK(BM_InternerInternHit);

// --- replay engine ----------------------------------------------------------------------

void BM_ReplaySmallTrace(benchmark::State& state) {
  // End-to-end replay of a miniature EPA row; counters report the hot
  // loop's throughput (simulator events per host second) and its working
  // set (the event queue's high-water mark).
  const auto spec = replay::Table3Experiments()[0];
  trace::WorkloadConfig small = trace::GetPreset(spec.trace).workload;
  small.total_requests /= 50;
  small.num_documents /= 10;
  small.num_clients /= 10;
  const trace::Trace trace = trace::GenerateTrace(small);
  const replay::ReplayConfig config =
      replay::MakeReplayConfig(spec, core::Protocol::kInvalidation, trace);

  replay::ReplayMetrics last;
  for (auto _ : state) {
    last = replay::RunReplay(config);
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(last.sim_events_executed));
  state.counters["events/s"] = last.events_per_second();
  state.counters["requests/s"] = last.requests_per_second();
  state.counters["peak_queue"] =
      static_cast<double>(last.sim_peak_queue_depth);
}
BENCHMARK(BM_ReplaySmallTrace)->Unit(benchmark::kMillisecond);

// --- wire codec ------------------------------------------------------------------------

void BM_WireEncodeRequest(benchmark::State& state) {
  net::Request request;
  request.type = net::MessageType::kIfModifiedSince;
  request.url = "/docs/00042.html";
  request.client_id = "10.1.2.3";
  request.if_modified_since = 123456789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::EncodeLine(request));
  }
}
BENCHMARK(BM_WireEncodeRequest);

void BM_WireDecodeReply(benchmark::State& state) {
  net::Reply reply;
  reply.type = net::MessageType::kReply200;
  reply.url = "/docs/00042.html";
  reply.body_bytes = 21504;
  reply.last_modified = 99;
  reply.version = 3;
  reply.lease_until = 987654321;
  const std::string line = net::EncodeLine(reply);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::DecodeLine(line));
  }
}
BENCHMARK(BM_WireDecodeReply);

// --- distributions & trace generation ----------------------------------------------------

void BM_ZipfSample(benchmark::State& state) {
  const util::ZipfDistribution zipf(
      static_cast<std::size_t>(state.range(0)), 0.9);
  util::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_GenerateTrace(benchmark::State& state) {
  trace::WorkloadConfig config;
  config.total_requests = static_cast<std::uint64_t>(state.range(0));
  config.num_documents = 1000;
  config.num_clients = 500;
  config.duration = kDay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::GenerateTrace(config));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateTrace)->Arg(10000)->Arg(50000);

// --- analytic model -----------------------------------------------------------------------

void BM_SequenceSimulation(benchmark::State& state) {
  util::Rng rng(3);
  std::string sequence;
  for (int i = 0; i < 10000; ++i) sequence += rng.NextBool(0.8) ? 'r' : 'm';
  const auto events = core::ParseSequence(sequence);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimulateInvalidationSequence(events));
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SequenceSimulation);

// --- accelerator end-to-end ----------------------------------------------------------------

void BM_AcceleratorRequestPath(benchmark::State& state) {
  http::DocumentStore docs;
  for (int i = 0; i < 1000; ++i) {
    docs.Add("/doc" + std::to_string(i), 4096, 0);
  }
  core::Accelerator accel(docs, core::LeaseConfig{});
  util::Rng rng(11);
  for (auto _ : state) {
    net::Request request;
    request.type = net::MessageType::kGet;
    request.url = "/doc" + std::to_string(rng.NextBelow(1000));
    request.client_id = "10.0.0." + std::to_string(rng.NextBelow(256));
    benchmark::DoNotOptimize(accel.HandleRequest(request, 0));
  }
}
BENCHMARK(BM_AcceleratorRequestPath);

}  // namespace
