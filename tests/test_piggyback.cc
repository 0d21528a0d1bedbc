// Tests for the piggyback consistency mechanisms (PCV / PSI): the core
// helpers, the proxy-cache support methods, the caps on one request's PCV
// batch and one reply's PSI notices, and the replay-engine behaviour of the
// two protocols relative to plain adaptive TTL.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/consistency/policy.h"
#include "core/piggyback.h"
#include "core/protocol_steps.h"
#include "http/proxy_cache.h"
#include "replay/engine.h"
#include "trace/workload.h"

namespace webcc {
namespace {

using http::eviction::EvictionPolicyKind;

// --- ValidatePiggyback ---------------------------------------------------------

TEST(PcvValidate, SplitsFreshFromChanged) {
  http::DocumentStore store;
  store.Add("/fresh", 100, 10);
  store.Add("/changed", 100, 10);
  store.Touch("/changed", 50);

  std::vector<net::PcvQuery> queries = {
      {"/fresh", "c", 10},
      {"/changed", "c", 10},
      {"/gone", "c", 10},
  };
  // Only the stale copies come back, in query order; fresh ones are implied.
  const auto stale = core::ValidatePiggyback(store, queries);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0].url, "/changed");
  EXPECT_EQ(stale[0].owner, "c");
  EXPECT_EQ(stale[1].url, "/gone");  // deleted at origin => invalid
  EXPECT_EQ(stale[1].owner, "c");
}

TEST(PcvValidate, EmptyBatch) {
  http::DocumentStore store;
  EXPECT_TRUE(core::ValidatePiggyback(store, {}).empty());
}

TEST(PcvBytes, RequestScalesWithItems) {
  std::vector<net::PcvQuery> queries = {{"/a", "c", 0}, {"/bb", "c", 0}};
  const auto bytes = core::PcvRequestExtraBytes(queries);
  EXPECT_GT(bytes, queries[0].url.size() + queries[1].url.size());
  EXPECT_EQ(core::PcvRequestExtraBytes({}), 0u);
}

TEST(PcvBytes, ReplyCountsOnlyInvalid) {
  // The reply carries only the invalid copy; the valid "/a" is implied.
  std::vector<net::PcvStale> stale = {{"/bb", "c"}};
  // The accounting matches the historical url@owner key framing.
  EXPECT_EQ(core::PcvReplyExtraBytes(stale), std::string("/bb@c").size() + 2);
}

// --- ModificationLog --------------------------------------------------------------

TEST(ModificationLog, CollectsWindowExclusiveInclusive) {
  core::ModificationLog log;
  log.Record(10, "/a");
  log.Record(20, "/b");
  log.Record(30, "/c");
  const auto window = log.CollectSince(10, 30, 100);
  EXPECT_EQ(window.urls, (std::vector<std::string>{"/b", "/c"}));
  EXPECT_EQ(window.advanced_to, 30);
}

TEST(ModificationLog, EmptyWindowWhenNothingNew) {
  core::ModificationLog log;
  log.Record(10, "/a");
  EXPECT_TRUE(log.CollectSince(10, 50, 100).urls.empty());
  EXPECT_TRUE(log.CollectSince(50, 50, 100).urls.empty());
  EXPECT_TRUE(log.CollectSince(60, 50, 100).urls.empty());
}

TEST(ModificationLog, DeduplicatesUrls) {
  core::ModificationLog log;
  log.Record(10, "/a");
  log.Record(20, "/a");
  log.Record(30, "/b");
  const auto window = log.CollectSince(0, 40, 100);
  EXPECT_EQ(window.urls, (std::vector<std::string>{"/a", "/b"}));
  EXPECT_EQ(window.advanced_to, 40);
}

TEST(ModificationLog, CapTruncatesAndHoldsCursor) {
  core::ModificationLog log;
  log.Record(10, "/a");
  log.Record(20, "/b");
  log.Record(30, "/c");
  const auto first = log.CollectSince(0, 100, 2);
  EXPECT_EQ(first.urls, (std::vector<std::string>{"/a", "/b"}));
  EXPECT_EQ(first.advanced_to, 20);  // stops at the last included entry
  const auto rest = log.CollectSince(first.advanced_to, 100, 2);
  EXPECT_EQ(rest.urls, (std::vector<std::string>{"/c"}));
  EXPECT_EQ(rest.advanced_to, 100);
}

TEST(ModificationLog, FutureModificationsExcluded) {
  core::ModificationLog log;
  log.Record(10, "/a");
  log.Record(99, "/later");
  const auto window = log.CollectSince(0, 50, 100);
  EXPECT_EQ(window.urls, (std::vector<std::string>{"/a"}));
  EXPECT_EQ(window.advanced_to, 50);
}

// --- proxy cache support ------------------------------------------------------------

http::CacheEntry Entry(const std::string& url, const std::string& owner,
                       Time ttl) {
  http::CacheEntry entry;
  entry.key = url + "@" + owner;
  entry.url = url;
  entry.owner = owner;
  entry.size_bytes = 10;
  entry.version = 1;
  entry.ttl_expires = ttl;
  return entry;
}

TEST(ProxyCachePiggyback, EraseByUrlRemovesAllOwners) {
  http::ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(Entry("/a", "alice", 100), 0);
  cache.Insert(Entry("/a", "bob", 100), 0);
  cache.Insert(Entry("/b", "alice", 100), 0);
  EXPECT_EQ(cache.EraseByUrl("/a"), 2u);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.EraseByUrl("/a"), 0u);
  EXPECT_NE(cache.Peek("/b@alice"), nullptr);
}

TEST(ProxyCachePiggyback, EraseByUrlAfterReplacement) {
  http::ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(Entry("/a", "alice", 100), 0);
  cache.Insert(Entry("/a", "alice", 200), 0);  // replace
  EXPECT_EQ(cache.EraseByUrl("/a"), 1u);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ProxyCachePiggyback, TakeExpiredReturnsOnlyExpired) {
  http::ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(Entry("/old", "c", 10), 0);
  cache.Insert(Entry("/fresh", "c", 1000), 0);
  const auto expired = cache.TakeExpired(500, 10);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->url, "/old");
}

TEST(ProxyCachePiggyback, TakeExpiredConsumesRecords) {
  http::ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(Entry("/a", "c", 10), 0);
  EXPECT_EQ(cache.TakeExpired(500, 10).size(), 1u);
  // Consumed: a second call finds nothing until re-armed.
  EXPECT_TRUE(cache.TakeExpired(500, 10).empty());
  http::CacheEntry* entry = cache.Peek("/a@c");
  ASSERT_NE(entry, nullptr);
  cache.SetTtlExpiry(*entry, 20);
  EXPECT_EQ(cache.TakeExpired(500, 10).size(), 1u);
}

TEST(ProxyCachePiggyback, TakeExpiredHonoursCap) {
  http::ProxyCache cache(10000, EvictionPolicyKind::kLru);
  for (int i = 0; i < 20; ++i) {
    cache.Insert(Entry("/d" + std::to_string(i), "c", i + 1), 0);
  }
  EXPECT_EQ(cache.TakeExpired(500, 5).size(), 5u);
  EXPECT_EQ(cache.TakeExpired(500, 100).size(), 15u);
}

TEST(ProxyCachePiggyback, TakeExpiredSkipsErasedEntries) {
  http::ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(Entry("/a", "c", 10), 0);
  cache.Insert(Entry("/b", "c", 20), 0);
  cache.Erase("/a@c");
  const auto expired = cache.TakeExpired(500, 10);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->url, "/b");
}

// --- the piggyback caps ----------------------------------------------------------------

TEST(PiggybackCaps, PcvRequestCarriesAtMostTheBatchCap) {
  const auto policy = core::consistency::MakePolicy(
      core::Protocol::kPiggybackValidation, {});
  http::ProxyCache cache(100000, EvictionPolicyKind::kLru);
  const std::size_t overflow = 10;
  for (std::size_t i = 0; i < core::kMaxPcvBatch + overflow; ++i) {
    cache.Insert(Entry("/d" + std::to_string(i), "c", 10), 0);
  }
  // Each miss takes the next batch of expired copies along.
  const core::FetchStart first =
      core::StartFetch(cache, *policy, "/miss", "c", 500);
  EXPECT_EQ(first.hit, nullptr);
  EXPECT_EQ(first.request.pcv_queries.size(), core::kMaxPcvBatch);
  const core::FetchStart second =
      core::StartFetch(cache, *policy, "/miss", "c", 500);
  EXPECT_EQ(second.request.pcv_queries.size(), overflow);
}

TEST(PiggybackCaps, PsiReplyCarriesAtMostTheNoticeCap) {
  const auto policy = core::consistency::MakePolicy(
      core::Protocol::kPiggybackInvalidation, {});
  core::ServerSite site(policy->traits(), core::LeaseConfig{}, 1, "server");
  const std::size_t overflow = 20;
  const std::size_t modified = core::kMaxPsiNotices + overflow;
  for (std::size_t i = 0; i < modified; ++i) {
    ASSERT_TRUE(site.docs().Add("/d" + std::to_string(i), 100, 0));
  }
  for (std::size_t i = 0; i < modified; ++i) {
    ASSERT_TRUE(site.Touch("/d" + std::to_string(i),
                           10 + static_cast<Time>(i)));
  }
  net::Request request;
  request.url = "/d0";
  request.client_id = "c";
  Time cursor = 0;
  const std::optional<net::Reply> first = site.Serve(request, 1000, &cursor);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->psi_modified.size(), core::kMaxPsiNotices);
  // The cursor stops at the last notice sent, so the rest come next time.
  EXPECT_EQ(cursor, 10 + static_cast<Time>(core::kMaxPsiNotices) - 1);
  const std::optional<net::Reply> rest = site.Serve(request, 1000, &cursor);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->psi_modified.size(), overflow);
  EXPECT_EQ(cursor, 1000);
}

// --- replay behaviour ------------------------------------------------------------------

trace::Trace PiggybackTrace() {
  trace::WorkloadConfig config;
  config.duration = 3 * kHour;
  config.total_requests = 3000;
  config.num_documents = 100;
  config.num_clients = 50;
  config.revisit_probability = 0.2;
  config.seed = 31;
  return trace::GenerateTrace(config);
}

replay::ReplayConfig ReplayConfigFor(const trace::Trace& trace,
                                     core::Protocol protocol) {
  replay::ReplayConfig config;
  config.protocol = protocol;
  config.trace = &trace;
  config.mean_lifetime = 4 * kHour;       // aggressive modification rate
  config.fixed_initial_age = 30 * kDay;   // long TTLs: staleness risk is real
  return config;
}

TEST(ReplayPsi, ReducesStaleServesVersusTtl) {
  const trace::Trace trace = PiggybackTrace();
  const auto ttl =
      RunReplay(ReplayConfigFor(trace, core::Protocol::kAdaptiveTtl));
  const auto psi = RunReplay(
      ReplayConfigFor(trace, core::Protocol::kPiggybackInvalidation));
  EXPECT_GT(ttl.stale_serves, 0u);
  EXPECT_LT(psi.stale_serves, ttl.stale_serves);
  EXPECT_GT(psi.psi_notices, 0u);
  EXPECT_GT(psi.psi_entries_erased, 0u);
  // PSI adds no messages, only bytes on existing replies.
  EXPECT_EQ(psi.invalidations_sent, 0u);
}

TEST(ReplayPsi, RequestsStillResolveExactlyOnce) {
  const trace::Trace trace = PiggybackTrace();
  const auto psi = RunReplay(
      ReplayConfigFor(trace, core::Protocol::kPiggybackInvalidation));
  EXPECT_EQ(psi.local_hits + psi.validated_hits + psi.replies_200,
            psi.requests_issued);
  EXPECT_EQ(psi.strong_violations, 0u);
}

TEST(ReplayPcv, ReducesImsVersusTtl) {
  const trace::Trace trace = PiggybackTrace();
  // Short TTLs so entries keep expiring and needing validation.
  auto make = [&trace](core::Protocol protocol) {
    replay::ReplayConfig config = ReplayConfigFor(trace, protocol);
    config.fixed_initial_age = 2 * kHour;
    config.ttl.min_ttl = kMinute;
    return config;
  };
  const auto ttl = RunReplay(make(core::Protocol::kAdaptiveTtl));
  const auto pcv = RunReplay(make(core::Protocol::kPiggybackValidation));
  EXPECT_GT(ttl.ims_requests, 0u);
  EXPECT_GT(pcv.pcv_items_piggybacked, 0u);
  // Entries validated for free on misses no longer cost an IMS.
  EXPECT_LT(pcv.ims_requests, ttl.ims_requests);
}

TEST(ReplayPcv, RequestsStillResolveExactlyOnce) {
  const trace::Trace trace = PiggybackTrace();
  const auto pcv = RunReplay(
      ReplayConfigFor(trace, core::Protocol::kPiggybackValidation));
  EXPECT_EQ(pcv.local_hits + pcv.validated_hits + pcv.replies_200,
            pcv.requests_issued);
  EXPECT_EQ(pcv.request_timeouts, 0u);
}

TEST(ReplayPcv, Deterministic) {
  const trace::Trace trace = PiggybackTrace();
  const auto a = RunReplay(
      ReplayConfigFor(trace, core::Protocol::kPiggybackValidation));
  const auto b = RunReplay(
      ReplayConfigFor(trace, core::Protocol::kPiggybackValidation));
  EXPECT_TRUE(replay::SameSimulation(a, b));
}

TEST(ReplayPiggyback, BothRemainWeakerThanInvalidation) {
  const trace::Trace trace = PiggybackTrace();
  const auto invalidation = RunReplay(
      ReplayConfigFor(trace, core::Protocol::kInvalidation));
  const auto psi = RunReplay(
      ReplayConfigFor(trace, core::Protocol::kPiggybackInvalidation));
  EXPECT_EQ(invalidation.stale_serves,
            invalidation.stale_while_invalidation_in_flight);
  // PSI may still serve stale between contacts; invalidation may not
  // (beyond in-flight windows).
  EXPECT_GE(psi.stale_serves, invalidation.stale_serves);
}

TEST(ReplayMulticast, OneNetworkMessagePerModification) {
  const trace::Trace trace = PiggybackTrace();
  replay::ReplayConfig unicast =
      ReplayConfigFor(trace, core::Protocol::kInvalidation);
  replay::ReplayConfig multicast = unicast;
  multicast.multicast_invalidation = true;
  const auto uni = RunReplay(unicast);
  const auto multi = RunReplay(multicast);
  // Same logical invalidations and deliveries...
  EXPECT_EQ(multi.invalidations_sent, uni.invalidations_sent);
  EXPECT_EQ(multi.invalidations_delivered, multi.invalidations_sent);
  // ...but far fewer network messages and bytes from the server.
  EXPECT_GT(multi.multicast_sends, 0u);
  EXPECT_LT(multi.invalidation_messages(), uni.invalidation_messages());
  EXPECT_LT(multi.total_messages(), uni.total_messages());
  EXPECT_LT(multi.message_bytes, uni.message_bytes);
  EXPECT_EQ(multi.strong_violations, 0u);
  // The fan-out no longer scales the server's send time with list length.
  EXPECT_LT(multi.invalidation_time_ms.max(), uni.invalidation_time_ms.max());
}

}  // namespace
}  // namespace webcc
