// The eviction kernel's contract: policies pick the documented victims with
// deterministic tie-breaks, the TTL index stays bounded under renewal
// churn (the PR 8 stale-record leak), oversize inserts are counted and
// traced, and the optional second tier preserves every consistency-facing
// semantic (TakeExpired, EraseByUrl, MarkAllQuestionable) across both
// tiers. The randomized cross-check against a model cache lives in
// test_cache_model.cc; these are the targeted unit cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "http/cache_key.h"
#include "http/eviction/policy.h"
#include "http/proxy_cache.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace webcc::http {
namespace {

using eviction::EvictionPolicyKind;

struct RecordedEvent {
  obs::EventType type;
  Time at;
  std::string url;
  std::int64_t detail;
};

struct RecordingSink final : obs::TraceSink {
  std::vector<RecordedEvent> events;
  void Emit(const obs::TraceEvent& event) override {
    events.push_back({event.type, event.at, std::string(event.url),
                      event.detail});
  }
  void WriteRaw(std::string_view) override {}
  std::size_t CountDetail(std::int64_t detail) const {
    std::size_t n = 0;
    for (const RecordedEvent& e : events) {
      if (e.type == obs::EventType::kEviction && e.detail == detail) ++n;
    }
    return n;
  }
};

CacheEntry MakeEntry(const std::string& url, std::uint64_t size, Time ttl,
                     const std::string& owner = "c") {
  CacheEntry entry;
  entry.url = url;
  entry.owner = owner;
  entry.key = ComposeCacheKey(url, owner);
  entry.size_bytes = size;
  entry.ttl_expires = ttl;
  return entry;
}

// --- kind spellings ---------------------------------------------------------

TEST(EvictionPolicyKindTest, ToStringParseRoundTrip) {
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kExpiredFirstLru,
        EvictionPolicyKind::kGds}) {
    EvictionPolicyKind parsed = EvictionPolicyKind::kLru;
    ASSERT_TRUE(
        eviction::ParseEvictionPolicyKind(eviction::ToString(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  EvictionPolicyKind out = EvictionPolicyKind::kGds;
  EXPECT_FALSE(eviction::ParseEvictionPolicyKind("mru", out));
  EXPECT_EQ(out, EvictionPolicyKind::kGds);  // untouched on failure
}

// --- TTL index --------------------------------------------------------------

TEST(TtlIndexTest, PopsByExpiryThenStamp) {
  // Same tie-break as the pre-kernel TtlHeapItem: expiry first, then the
  // insertion stamp, regardless of push order.
  eviction::TtlIndex heap;
  heap.Push({50, 7, 1});
  heap.Push({10, 9, 2});
  heap.Push({10, 3, 3});
  heap.Push({50, 2, 4});
  std::vector<eviction::EntryId> order;
  while (!heap.empty()) order.push_back(heap.Pop().id);
  EXPECT_EQ(order, (std::vector<eviction::EntryId>{3, 2, 4, 1}));
}

TEST(ProxyCacheTtlHeapTest, RenewChurnKeepsHeapBounded) {
  // The stale-record regression: when the TTL heap deleted lazily, every
  // SetTtlExpiry leaked one stale record, so this loop grew it to ~30010
  // records. The TTL index replaces an entry's record in place, so it
  // holds exactly the 10 resident entries' records.
  ProxyCache cache(1 << 20, EvictionPolicyKind::kExpiredFirstLru);
  for (int i = 0; i < 10; ++i) {
    cache.Insert(MakeEntry("/doc" + std::to_string(i), 100, 1000), 0);
  }
  for (int round = 0; round < 3000; ++round) {
    for (int i = 0; i < 10; ++i) {
      CacheEntry* entry = cache.Peek(ComposeCacheKey(
          "/doc" + std::to_string(i), "c"));
      ASSERT_NE(entry, nullptr);
      cache.SetTtlExpiry(*entry, 1000 + round);
    }
    ASSERT_LE(cache.ttl_heap_size(), 64u);
  }
  EXPECT_EQ(cache.entry_count(), 10u);
  // The renewed expiries still work: everything expires at the last value.
  EXPECT_EQ(cache.TakeExpired(10000, 100).size(), 10u);
}

TEST(ProxyCacheTest, FootprintFollowsResidentsNotHistory) {
  // 10^5 distinct keys (1,000 URLs x 100 owners) stream through a budget
  // of 1,000 entries. Every index the cache keeps is sized by the entries
  // it holds, so the footprint after 10^5 inserts matches the one after
  // 2x10^4, and entry ids stay below the peak residency. An index sized by
  // every key ever inserted grows fivefold between the two.
  for (const EvictionPolicyKind kind :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kExpiredFirstLru,
        EvictionPolicyKind::kGds}) {
    SCOPED_TRACE(std::string(eviction::ToString(kind)));
    ProxyCache cache(100'000, kind);
    std::size_t peak_entries = 0;
    std::uint64_t footprint_at_20k = 0;
    for (int i = 0; i < 100'000; ++i) {
      // Finite TTLs keep the TTL index populated; some have lapsed by the
      // time their entry is a victim.
      cache.Insert(MakeEntry("/doc" + std::to_string(i % 1000), 100,
                             i + 500 + i % 1000,
                             "c" + std::to_string(i / 1000)),
                   i);
      peak_entries = std::max(peak_entries, cache.entry_count());
      if (i + 1 == 20'000) footprint_at_20k = cache.MemoryFootprintBytes();
    }
    EXPECT_EQ(peak_entries, 1000u);
    EXPECT_LE(cache.entry_id_limit(), peak_entries);
    ASSERT_GT(footprint_at_20k, 0u);
    EXPECT_LE(cache.MemoryFootprintBytes(), footprint_at_20k * 11 / 10);
  }
}

// --- policy semantics -------------------------------------------------------

TEST(GdsPolicyTest, EvictsLowestCreditNotLruTail) {
  // GreedyDual-Size credits H = L + 1/size: the big cold object loses to a
  // small one even when the small one is least recently used.
  ProxyCache cache(10000, EvictionPolicyKind::kGds);
  cache.Insert(MakeEntry("/small", 100, kNeverExpires), 0);
  cache.Insert(MakeEntry("/big", 5000, kNeverExpires), 1);
  // /small is now the LRU tail, but H_small = 1/100 > H_big = 1/5000.
  cache.Insert(MakeEntry("/new", 5000, kNeverExpires), 2);
  EXPECT_NE(cache.Peek(ComposeCacheKey("/small", "c")), nullptr);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/big", "c")), nullptr);
}

TEST(GdsPolicyTest, HitRecreditsAboveInflation) {
  // After an eviction raises L, a hit re-credits the entry above the new
  // floor, so recently-useful entries outlive cold ones of the same size.
  ProxyCache cache(10000, EvictionPolicyKind::kGds);
  cache.Insert(MakeEntry("/a", 4000, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 4000, kNeverExpires), 1);
  ASSERT_NE(cache.Lookup(ComposeCacheKey("/a", "c")), nullptr);  // re-credit
  // Equal sizes, so without the hit /a (older order) would be the victim.
  cache.Insert(MakeEntry("/d", 4000, kNeverExpires), 2);
  EXPECT_NE(cache.Peek(ComposeCacheKey("/a", "c")), nullptr);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/b", "c")), nullptr);
}

TEST(GdsPolicyTest, EqualCreditTieBreaksToOlderOrder) {
  // Same size, no hits: identical H, so the policy-private monotone order
  // decides — the older credit is evicted first, mirroring the TTL heap's
  // stamp rule.
  ProxyCache cache(12000, EvictionPolicyKind::kGds);
  cache.Insert(MakeEntry("/first", 4000, kNeverExpires), 0);
  cache.Insert(MakeEntry("/second", 4000, kNeverExpires), 1);
  cache.Insert(MakeEntry("/third", 4000, kNeverExpires), 2);
  cache.Insert(MakeEntry("/fourth", 4000, kNeverExpires), 3);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/first", "c")), nullptr);
  EXPECT_NE(cache.Peek(ComposeCacheKey("/second", "c")), nullptr);
}

TEST(ExpiredFirstPolicyTest, TieOnExpiryBreaksToOlderStamp) {
  // Two entries expire at the same instant; the expired-first rule must
  // take the older stamp first (TtlHeapItem's documented ordering).
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru);
  cache.Insert(MakeEntry("/x", 400, 50), 0);
  cache.Insert(MakeEntry("/y", 400, 50), 0);
  // Touch /x so LRU would evict /y; the expired rule ignores recency.
  ASSERT_NE(cache.Lookup(ComposeCacheKey("/x", "c")), nullptr);
  cache.Insert(MakeEntry("/z", 400, kNeverExpires), 100);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/x", "c")), nullptr);
  EXPECT_NE(cache.Peek(ComposeCacheKey("/y", "c")), nullptr);
}

// --- oversize rejections ----------------------------------------------------

TEST(ProxyCacheOversizeTest, CountsAndTracesRejections) {
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/huge", 4000, kNeverExpires), 7);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().oversize_rejections, 1u);
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].type, obs::EventType::kEviction);
  EXPECT_EQ(sink.events[0].detail, 2);
  EXPECT_EQ(sink.events[0].at, 7);
  EXPECT_EQ(sink.events[0].url, "/huge");

  obs::MetricsRegistry registry;
  cache.ExportMetrics(registry, "c.");
  EXPECT_EQ(registry.CounterValue("c.oversize_rejections"), 1u);
}

// --- tiering ----------------------------------------------------------------

TierConfig SmallTier() {
  TierConfig tier;
  tier.tier2_capacity_bytes = 10000;
  tier.promotion_hits = 2;
  tier.demotion_pressure = 0.5;
  tier.ttl_cleanup_per_tick = 8;
  return tier;
}

TEST(TieredCacheTest, PressureDemotesInsteadOfEvicting) {
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru, SmallTier());
  cache.Insert(MakeEntry("/a", 400, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 400, kNeverExpires), 1);
  // 800 bytes > the 500-byte watermark: /a (LRU tail) demotes, not evicts.
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.tier2_entry_count(), 1u);
  EXPECT_EQ(cache.stats().tier2_demotions, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.tier1_bytes_used(), 400u);
  EXPECT_EQ(cache.tier2_bytes_used(), 400u);
  EXPECT_NE(cache.Peek(ComposeCacheKey("/a", "c")), nullptr);
}

TEST(TieredCacheTest, PromotesAfterConfiguredHits) {
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru, SmallTier());
  cache.Insert(MakeEntry("/a", 400, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 400, kNeverExpires), 1);
  ASSERT_EQ(cache.tier2_entry_count(), 1u);
  EXPECT_NE(cache.Lookup(ComposeCacheKey("/a", "c"), 2), nullptr);
  EXPECT_EQ(cache.stats().tier2_promotions, 0u);  // 1 hit < promotion_hits
  EXPECT_NE(cache.Lookup(ComposeCacheKey("/a", "c"), 3), nullptr);
  EXPECT_EQ(cache.stats().tier2_promotions, 1u);
  EXPECT_EQ(cache.tier2_entry_count(), 0u);
  EXPECT_EQ(cache.tier1_bytes_used(), 800u);
}

TEST(TieredCacheTest, Tier2OverflowEvictsItsOwnTail) {
  RecordingSink sink;
  TierConfig tier = SmallTier();
  tier.tier2_capacity_bytes = 500;
  ProxyCache cache(1000, EvictionPolicyKind::kLru, tier);
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/a", 400, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 400, kNeverExpires), 1);  // demotes /a
  cache.Insert(MakeEntry("/c", 400, kNeverExpires), 2);  // demotes /b: full
  EXPECT_EQ(cache.stats().tier2_evictions, 1u);
  EXPECT_EQ(sink.CountDetail(3), 1u);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/a", "c")), nullptr);
  EXPECT_NE(cache.Peek(ComposeCacheKey("/b", "c")), nullptr);
}

TEST(TieredCacheTest, ExpiredRuleVictimsAreEvictedNotDemoted) {
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru, SmallTier());
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/stale", 400, 10), 0);
  cache.Insert(MakeEntry("/live", 400, kNeverExpires), 20);
  // At now=20 /stale is expired: the expired-first rule evicts it outright
  // rather than wasting tier-2 space on a dead document.
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
  EXPECT_EQ(cache.stats().tier2_demotions, 0u);
  EXPECT_EQ(sink.CountDetail(1), 1u);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/stale", "c")), nullptr);
}

TEST(TieredCacheTest, Tier2CleanupReclaimsExpiredFromColdEnd) {
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kLru, SmallTier());
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/a", 400, 100), 0);
  cache.Insert(MakeEntry("/b", 400, kNeverExpires), 1);  // demotes /a
  ASSERT_EQ(cache.tier2_entry_count(), 1u);
  cache.Insert(MakeEntry("/c", 100, kNeverExpires), 200);  // cleanup tick
  EXPECT_EQ(cache.stats().tier2_expired_cleaned, 1u);
  EXPECT_EQ(sink.CountDetail(4), 1u);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/a", "c")), nullptr);
}

TEST(TieredCacheTest, OversizeForTier1LandsInTier2) {
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kLru, SmallTier());
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/big", 2000, kNeverExpires), 0);
  EXPECT_EQ(cache.stats().oversize_rejections, 0u);
  EXPECT_EQ(cache.tier2_entry_count(), 1u);
  // Hits never promote it: it cannot fit tier 1.
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(cache.Lookup(ComposeCacheKey("/big", "c"), i), nullptr);
  }
  EXPECT_EQ(cache.stats().tier2_promotions, 0u);
  // Larger than both budgets: rejected with the distinguishing detail.
  cache.Insert(MakeEntry("/colossal", 20000, kNeverExpires), 1);
  EXPECT_EQ(cache.stats().oversize_rejections, 1u);
  EXPECT_EQ(sink.CountDetail(2), 1u);
}

TEST(TieredCacheTest, ConsistencySweepsSeeBothTiers) {
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru, SmallTier());
  cache.Insert(MakeEntry("/doc", 400, 100, "alice"), 0);
  cache.Insert(MakeEntry("/doc", 400, kNeverExpires, "bob"), 1);
  ASSERT_EQ(cache.tier2_entry_count(), 1u);  // alice's copy demoted

  // TakeExpired finds the demoted copy through the shared TTL heap.
  const std::vector<CacheEntry*> expired = cache.TakeExpired(150, 10);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0]->owner, "alice");
  cache.SetTtlExpiry(*expired[0], 500);  // re-arm, as PCV does

  // MarkAllQuestionable covers both tiers.
  cache.MarkAllQuestionable();
  EXPECT_TRUE(cache.Peek(ComposeCacheKey("/doc", "alice"))->questionable);
  EXPECT_TRUE(cache.Peek(ComposeCacheKey("/doc", "bob"))->questionable);

  // EraseByUrl removes every owner's copy regardless of tier.
  EXPECT_EQ(cache.EraseByUrl("/doc"), 2u);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(TieredCacheTest, DisabledTierMatchesSingleTierCache) {
  // With tiering off the tiered constructor is bit-identical to the classic
  // cache: same victims, same stats, same occupancy.
  ProxyCache classic(2000, EvictionPolicyKind::kExpiredFirstLru);
  ProxyCache tiered(2000, EvictionPolicyKind::kExpiredFirstLru, TierConfig{});
  for (int i = 0; i < 50; ++i) {
    const std::string url = "/doc" + std::to_string(i % 7);
    const Time ttl = (i % 3 == 0) ? kNeverExpires : Time(i * 10);
    classic.Insert(MakeEntry(url, 300 + (i % 4) * 100, ttl), i);
    tiered.Insert(MakeEntry(url, 300 + (i % 4) * 100, ttl), i);
    const std::string probe =
        ComposeCacheKey("/doc" + std::to_string((i * 3) % 7), "c");
    EXPECT_EQ(classic.Lookup(probe, i) != nullptr,
              tiered.Lookup(probe, i) != nullptr);
    EXPECT_EQ(classic.bytes_used(), tiered.bytes_used());
    EXPECT_EQ(classic.entry_count(), tiered.entry_count());
  }
  EXPECT_EQ(classic.stats().evictions, tiered.stats().evictions);
  EXPECT_EQ(classic.stats().expired_evictions,
            tiered.stats().expired_evictions);
}

TEST(ProxyCacheMetricsTest, ExportsPolicyAndTierCounters) {
  ProxyCache cache(10000, EvictionPolicyKind::kGds, SmallTier());
  cache.Insert(MakeEntry("/a", 4000, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 4000, kNeverExpires), 1);
  obs::MetricsRegistry registry;
  cache.ExportMetrics(registry, "c.");
  EXPECT_EQ(registry.CounterValue("c.insertions"), 2u);
  EXPECT_EQ(registry.CounterValue("c.tier2_demotions"),
            cache.stats().tier2_demotions);
  EXPECT_EQ(registry.CounterValue("c.policy_picks"),
            cache.stats().tier2_demotions + cache.stats().evictions);
  EXPECT_EQ(registry.CounterValue("c.tier2_bytes_used"),
            cache.tier2_bytes_used());
}

}  // namespace
}  // namespace webcc::http
