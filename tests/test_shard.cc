// Sharded accelerator tier (ctest label: differential companion): the
// consistent-hash ring's determinism/balance/stability contract, the
// per-shard outbox's coalescing and deterministic drain order, and the
// tier's central promise — the observable decision stream is shard-count
// invariant. Event streams from the core facade, replay decision traces
// for all five protocols, and journal recovery all must be identical at
// 1/2/4/8 shards (the one documented exception: sitelist_storage_bytes,
// which per-shard site interning duplicates).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/hash_ring.h"
#include "core/outbox.h"
#include "core/sharded_accelerator.h"
#include "fault/plan.h"
#include "http/document_store.h"
#include "net/message.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "trace/workload.h"
#include "util/time.h"

namespace webcc {
namespace {

using core::HashRing;
using core::InvalidationOutbox;
using core::ShardedAccelerator;

std::vector<std::string> SampleUrls(std::size_t count) {
  std::vector<std::string> urls;
  urls.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    urls.push_back("/docs/page-" + std::to_string(i) + ".html");
  }
  return urls;
}

// --- hash ring --------------------------------------------------------------

TEST(HashRing, DeterministicAcrossInstances) {
  const HashRing a(8);
  const HashRing b(8);
  for (const std::string& url : SampleUrls(500)) {
    EXPECT_EQ(a.ShardOf(url), b.ShardOf(url)) << url;
  }
}

TEST(HashRing, PlacementIsPinnedAtThreeAndFourShards) {
  // Which shard holds a document decides which table and journal it lives
  // in; a change to the ring's hash or to its point labels moves documents
  // and with them every sharded digest.
  const HashRing three(3);
  const HashRing four(4);
  const std::vector<std::string> urls = SampleUrls(12);
  const std::array<std::uint32_t, 12> on_three = {2, 1, 2, 1, 0, 0,
                                                   0, 2, 2, 1, 2, 1};
  const std::array<std::uint32_t, 12> on_four = {3, 1, 2, 1, 0, 0,
                                                  0, 3, 3, 1, 3, 1};
  for (std::size_t i = 0; i < urls.size(); ++i) {
    EXPECT_EQ(three.ShardOf(urls[i]), on_three[i]) << urls[i];
    EXPECT_EQ(four.ShardOf(urls[i]), on_four[i]) << urls[i];
  }
}

TEST(HashRing, SingleShardMapsEverythingToZero) {
  const HashRing ring(1);
  for (const std::string& url : SampleUrls(100)) {
    EXPECT_EQ(ring.ShardOf(url), 0u);
  }
}

TEST(HashRing, BalancedWithinLooseBoundsAtEightShards) {
  const HashRing ring(8);
  const std::vector<std::string> urls = SampleUrls(4000);
  std::array<std::size_t, 8> counts{};
  for (const std::string& url : urls) counts[ring.ShardOf(url)]++;
  for (std::uint32_t shard = 0; shard < 8; ++shard) {
    const double share = static_cast<double>(counts[shard]) / urls.size();
    // Uniform would be 0.125; 64 virtual points keep every shard well away
    // from starvation and from absorbing the ring.
    EXPECT_GT(share, 0.03) << "shard " << shard << " starved";
    EXPECT_LT(share, 0.30) << "shard " << shard << " overloaded";
  }
}

TEST(HashRing, GrowthMovesOnlyCapturedKeysOntoTheNewShard) {
  const HashRing before(4);
  const HashRing after(5);
  const std::vector<std::string> urls = SampleUrls(4000);
  std::size_t moved = 0;
  for (const std::string& url : urls) {
    const std::uint32_t old_shard = before.ShardOf(url);
    const std::uint32_t new_shard = after.ShardOf(url);
    if (old_shard == new_shard) continue;
    ++moved;
    // Consistent hashing: the existing shards' points are unchanged, so a
    // key can only move because a NEW point captured its arc.
    EXPECT_EQ(new_shard, 4u) << url << " moved between old shards";
  }
  // ~1/5 of keys in theory; anything under 40% keeps the bound meaningful.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / urls.size(), 0.4);
}

// --- per-shard outbox -------------------------------------------------------

TEST(Outbox, CoalescesDupWritesIntoOneEntry) {
  InvalidationOutbox outbox;
  EXPECT_FALSE(outbox.Add("site-a", "/x", 11, 100));
  EXPECT_TRUE(outbox.Add("site-a", "/x", 12, 250));  // dup-write: coalesced
  EXPECT_EQ(outbox.pending_urls(), 1u);

  const std::vector<InvalidationOutbox::Batch> batches = outbox.Drain();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].site, "site-a");
  ASSERT_EQ(batches[0].urls.size(), 1u);
  EXPECT_EQ(batches[0].urls[0], "/x");
  ASSERT_EQ(batches[0].write_ids.size(), 1u);
  EXPECT_EQ(batches[0].write_ids[0], (std::vector<std::uint64_t>{11, 12}));
  EXPECT_EQ(batches[0].oldest_queued, 100);
  EXPECT_TRUE(outbox.empty());
}

TEST(Outbox, RetriedQueueAcksEachWriteOnce) {
  // Regression (ISSUE 7): Add() appended the write id without a dup check,
  // so a sender retry of the same (site, url, write_id) — e.g. after a
  // dropped frame — made the drained batch ack the same delivery machine
  // twice. The retry must coalesce to a no-op.
  InvalidationOutbox outbox;
  EXPECT_FALSE(outbox.Add("site-a", "/x", 11, 100));
  EXPECT_TRUE(outbox.Add("site-a", "/x", 11, 250));  // retry: same write
  EXPECT_TRUE(outbox.Add("site-a", "/x", 12, 300));  // distinct write: kept
  EXPECT_TRUE(outbox.Add("site-a", "/x", 12, 350));  // retry of the second

  const std::vector<InvalidationOutbox::Batch> batches = outbox.Drain();
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].write_ids.size(), 1u);
  EXPECT_EQ(batches[0].write_ids[0], (std::vector<std::uint64_t>{11, 12}));
}

TEST(Outbox, DrainsSitesSortedAndUrlsFirstQueued) {
  InvalidationOutbox outbox;
  outbox.Add("zeta", "/b", 1, 10);
  outbox.Add("alpha", "/z", 2, 20);
  outbox.Add("zeta", "/a", 3, 30);
  outbox.Add("alpha", "/a", 4, 40);

  const std::vector<InvalidationOutbox::Batch> batches = outbox.Drain();
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].site, "alpha");
  EXPECT_EQ(batches[0].urls, (std::vector<std::string>{"/z", "/a"}));
  EXPECT_EQ(batches[0].oldest_queued, 20);
  EXPECT_EQ(batches[1].site, "zeta");
  EXPECT_EQ(batches[1].urls, (std::vector<std::string>{"/b", "/a"}));
  EXPECT_EQ(batches[1].oldest_queued, 10);
}

TEST(Outbox, ReadyPredicateHoldsUnreachableSites) {
  InvalidationOutbox outbox;
  outbox.Add("reachable", "/a", 1, 10);
  outbox.Add("partitioned", "/b", 2, 20);

  const auto only_reachable = [](const std::string& site) {
    return site == "reachable";
  };
  std::vector<InvalidationOutbox::Batch> batches =
      outbox.Drain(only_reachable);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].site, "reachable");
  EXPECT_FALSE(outbox.empty());
  EXPECT_EQ(outbox.pending_sites(), 1u);

  // The held site keeps coalescing while partitioned: two writes of /b
  // become ONE entry carrying both write ids, delivered after the heal.
  EXPECT_TRUE(outbox.Add("partitioned", "/b", 3, 30));
  batches = outbox.Drain();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].site, "partitioned");
  ASSERT_EQ(batches[0].write_ids.size(), 1u);
  EXPECT_EQ(batches[0].write_ids[0], (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(outbox.empty());
}

// --- sharded facade: event streams invariant across shard counts ------------

// Drives one fixed request/notify/prune/recover sequence and returns the
// full JSONL event text plus every invalidation the facade handed back.
struct FacadeRun {
  std::string events;
  std::vector<std::string> invalidations;  // "type url site" lines
  std::vector<core::InvalidationTable::Snapshot> entries;
};

void AppendInvalidations(const std::vector<net::Invalidation>& invs,
                         std::vector<std::string>& out) {
  for (const net::Invalidation& inv : invs) {
    out.push_back(std::to_string(static_cast<int>(inv.type)) + " " + inv.url +
                  " " + inv.client_id);
  }
}

FacadeRun DriveFacade(std::uint32_t shards) {
  const std::vector<std::string> urls = SampleUrls(40);
  http::DocumentStore docs;
  for (const std::string& url : urls) docs.Add(url, 1024, 0);

  core::LeaseConfig lease;
  lease.mode = core::LeaseMode::kFixed;
  lease.duration = 10 * kMinute;

  obs::BufferTraceSink sink;
  ShardedAccelerator accel(docs, lease, shards);
  accel.set_trace_sink(&sink);
  accel.EnableJournal(true);

  FacadeRun run;
  Time now = kMinute;
  // Register three sites over every URL, staggered so lease expiries differ.
  for (const char* site : {"site-a", "site-b", "site-c"}) {
    for (const std::string& url : urls) {
      net::Request request;
      request.url = url;
      request.client_id = site;
      request.type = net::MessageType::kGet;
      EXPECT_TRUE(accel.HandleRequest(request, now).has_value()) << url;
    }
    now += kMinute;
  }
  // Touch a quarter of the documents: fan-out.
  for (std::size_t i = 0; i < urls.size(); i += 4) {
    docs.Touch(urls[i], now);
    AppendInvalidations(accel.HandleNotify(net::Notify{urls[i]}, now),
                        run.invalidations);
  }
  // Let the first registration wave's leases lapse and prune.
  now = kMinute + lease.duration + kMinute;
  accel.PruneExpired(now);
  // Crash and journal-rebuild: the targeted recovery pass.
  for (std::size_t i = 1; i < urls.size(); i += 8) docs.Touch(urls[i], now);
  accel.Crash();
  ShardedAccelerator::RecoveryOutcome outcome = accel.RecoverFromJournal(now);
  EXPECT_FALSE(outcome.journal_damaged);
  AppendInvalidations(outcome.invalidations, run.invalidations);

  run.entries = accel.SnapshotEntries();
  run.events = sink.TakeText();
  return run;
}

TEST(ShardedAccelerator, ObservableBehaviorInvariantAcrossShardCounts) {
  const FacadeRun baseline = DriveFacade(1);
  ASSERT_FALSE(baseline.events.empty());
  ASSERT_FALSE(baseline.invalidations.empty());
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    const FacadeRun sharded = DriveFacade(shards);
    EXPECT_EQ(sharded.events, baseline.events) << shards << " shards";
    EXPECT_EQ(sharded.invalidations, baseline.invalidations)
        << shards << " shards";
    ASSERT_EQ(sharded.entries.size(), baseline.entries.size())
        << shards << " shards";
    for (std::size_t i = 0; i < baseline.entries.size(); ++i) {
      EXPECT_EQ(sharded.entries[i].url, baseline.entries[i].url);
      EXPECT_EQ(sharded.entries[i].site, baseline.entries[i].site);
      EXPECT_EQ(sharded.entries[i].lease_until, baseline.entries[i].lease_until);
    }
  }
}

TEST(ShardedAccelerator, RecoverBroadcastsUnionOfShardRegistries) {
  const std::vector<std::string> urls = SampleUrls(24);
  http::DocumentStore docs;
  for (const std::string& url : urls) docs.Add(url, 512, 0);

  const auto drive = [&urls, &docs](std::uint32_t shards) {
    ShardedAccelerator accel(docs, core::LeaseConfig{}, shards);
    for (std::size_t i = 0; i < urls.size(); ++i) {
      net::Request request;
      request.url = urls[i];
      request.client_id = "site-" + std::to_string(i % 5);
      request.type = net::MessageType::kGet;
      accel.HandleRequest(request, kMinute);
    }
    accel.Crash();
    std::vector<std::string> sites;
    for (const net::Invalidation& inv : accel.Recover()) {
      EXPECT_EQ(inv.type, net::MessageType::kInvalidateServer);
      sites.push_back(inv.client_id);
    }
    return sites;
  };

  const std::vector<std::string> baseline = drive(1);
  ASSERT_EQ(baseline.size(), 5u);  // deduplicated union
  EXPECT_TRUE(std::is_sorted(baseline.begin(), baseline.end()));
  EXPECT_EQ(drive(4), baseline);
  EXPECT_EQ(drive(8), baseline);
}

TEST(ShardedAccelerator, RecoverReachesTwoTierGetOnlySitesAtEveryShardCount) {
  // Sites whose only requests were two-tier GETs hold zero-length leases
  // and never enter a site list; the INVSRV broadcast still reaches every
  // one of them, in the same sorted order at 1 and 4 shards.
  const std::vector<std::string> urls = SampleUrls(24);
  http::DocumentStore docs;
  for (const std::string& url : urls) docs.Add(url, 512, 0);
  core::LeaseConfig lease;
  lease.mode = core::LeaseMode::kTwoTier;
  lease.duration = kDay;
  lease.short_duration = 0;

  const auto drive = [&](std::uint32_t shards) {
    ShardedAccelerator accel(docs, lease, shards);
    for (std::size_t i = 0; i < urls.size(); ++i) {
      net::Request request;
      request.url = urls[i];
      // Every third request revalidates (and earns a lease); "get-only-*"
      // sites never do.
      const bool ims = i % 3 == 0;
      request.client_id =
          (ims ? "renewer-" : "get-only-") + std::to_string(7 - i % 7);
      request.type = ims ? net::MessageType::kIfModifiedSince
                         : net::MessageType::kGet;
      EXPECT_TRUE(accel.HandleRequest(request, kMinute).has_value());
    }
    EXPECT_EQ(accel.TotalEntries(), urls.size() / 3);
    accel.Crash();
    std::vector<std::string> sites;
    for (const net::Invalidation& inv : accel.Recover()) {
      EXPECT_EQ(inv.type, net::MessageType::kInvalidateServer);
      sites.push_back(inv.client_id);
    }
    return sites;
  };

  const std::vector<std::string> baseline = drive(1);
  EXPECT_TRUE(std::is_sorted(baseline.begin(), baseline.end()));
  EXPECT_EQ(std::count_if(baseline.begin(), baseline.end(),
                          [](const std::string& site) {
                            return site.rfind("get-only-", 0) == 0;
                          }),
            7);
  EXPECT_EQ(drive(4), baseline);
}

// --- replay: serialized decision traces invariant across shard counts -------

const trace::Trace& ShardTrace() {
  static const trace::Trace trace = [] {
    trace::WorkloadConfig config;
    config.duration = kHour;
    config.total_requests = 500;
    config.num_documents = 40;
    config.num_clients = 12;
    config.seed = 11;
    return trace::GenerateTrace(config);
  }();
  return trace;
}

replay::ReplayConfig ShardBaseConfig(core::Protocol protocol) {
  replay::ReplayConfig config;
  config.protocol = protocol;
  config.trace = &ShardTrace();
  config.mean_lifetime = 2 * kHour;  // plenty of writes
  return config;
}

struct ReplayRun {
  replay::ReplayMetrics metrics;
  std::string digest;
};

ReplayRun RunSharded(replay::ReplayConfig config, std::uint32_t shards) {
  obs::BufferTraceSink sink;
  config.accelerator_shards = shards;
  config.trace_sink = &sink;
  ReplayRun run;
  run.metrics = replay::RunReplay(config);
  run.digest = obs::DigestJsonl(sink.TakeText());
  return run;
}

// SameSimulation modulo the one documented exception: per-shard site
// interning makes sitelist_storage_bytes grow with the shard count.
bool SameModuloStorage(const replay::ReplayMetrics& a,
                       replay::ReplayMetrics b) {
  b.sitelist_storage_bytes = a.sitelist_storage_bytes;
  return replay::SameSimulation(a, b);
}

TEST(ShardInvariance, SerializedReplayIdenticalForAllProtocols) {
  const core::Protocol protocols[] = {
      core::Protocol::kAdaptiveTtl,          core::Protocol::kPollEveryTime,
      core::Protocol::kInvalidation,         core::Protocol::kPiggybackValidation,
      core::Protocol::kPiggybackInvalidation};
  for (const core::Protocol protocol : protocols) {
    replay::ReplayConfig config = ShardBaseConfig(protocol);
    if (protocol == core::Protocol::kInvalidation) {
      config.lease.mode = core::LeaseMode::kTwoTier;
      config.lease.duration = 20 * kMinute;
      config.lease.short_duration = 5 * kMinute;
    }
    const ReplayRun baseline = RunSharded(config, 1);
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      const ReplayRun sharded = RunSharded(config, shards);
      EXPECT_EQ(sharded.digest, baseline.digest)
          << core::ToString(protocol) << " diverged at " << shards
          << " shards";
      EXPECT_TRUE(SameModuloStorage(baseline.metrics, sharded.metrics))
          << core::ToString(protocol) << " metrics diverged at " << shards
          << " shards";
    }
  }
}

}  // namespace
}  // namespace webcc
