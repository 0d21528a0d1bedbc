// The eviction kernel's contract: policies pick the documented victims with
// deterministic tie-breaks, the TTL index stays bounded under renewal
// churn (the PR 8 stale-record leak), and evictions and oversize inserts
// are counted and traced. The randomized cross-check against a model cache
// lives in test_cache_model.cc; these are the targeted unit cases.
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
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru);
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/x", 400, 50), 0);
  cache.Insert(MakeEntry("/y", 400, 50), 0);
  // Touch /x so LRU would evict /y; the expired rule ignores recency.
  ASSERT_NE(cache.Lookup(ComposeCacheKey("/x", "c")), nullptr);
  cache.Insert(MakeEntry("/z", 400, kNeverExpires), 100);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/x", "c")), nullptr);
  EXPECT_NE(cache.Peek(ComposeCacheKey("/y", "c")), nullptr);
  // The rule's victim is counted and traced as such (detail 1).
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
  EXPECT_EQ(sink.CountDetail(1), 1u);
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

TEST(ProxyCacheOversizeTest, OversizeReplacementDropsTheOldCopy) {
  // A new version too large to cache must not leave the old version behind
  // to be served; the other residents stay, and nothing counts as evicted.
  RecordingSink sink;
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru);
  cache.set_trace_sink(&sink);
  cache.Insert(MakeEntry("/a", 400, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 300, 50), 0);
  cache.Insert(MakeEntry("/a", 4000, kNeverExpires), 100);
  EXPECT_EQ(cache.Peek(ComposeCacheKey("/a", "c")), nullptr);
  EXPECT_NE(cache.Peek(ComposeCacheKey("/b", "c")), nullptr);
  EXPECT_EQ(cache.bytes_used(), 300u);
  EXPECT_EQ(cache.stats().oversize_rejections, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(sink.CountDetail(2), 1u);
  EXPECT_EQ(sink.events.size(), 1u);
}

// --- trace / counter reconciliation ------------------------------------------

class EvictionTraceTest
    : public ::testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(EvictionTraceTest, EventsReconcileWithCounters) {
  // DESIGN §8's identity at the cache's own level: each policy victim
  // emits one kEviction event (detail 1 when the expired-first rule chose
  // it, else 0) and each oversize rejection one with detail 2; no other
  // path emits one. Mixed sizes, finite and infinite TTLs, erasures and
  // replacements drive every path.
  const EvictionPolicyKind kind = GetParam();
  RecordingSink sink;
  ProxyCache cache(2000, kind);
  cache.set_trace_sink(&sink);
  for (int i = 0; i < 400; ++i) {
    const std::string url = "/doc" + std::to_string(i % 23);
    const std::uint64_t size = i % 17 == 0 ? 2500 : 150 + (i * 37) % 400;
    const Time ttl = i % 3 == 0 ? kNeverExpires : Time(i * 10 + (i % 7) * 40);
    cache.Insert(MakeEntry(url, size, ttl, "c" + std::to_string(i % 3)),
                 i * 10);
    if (i % 11 == 0) cache.EraseByUrl("/doc" + std::to_string(i % 5));
    if (i % 13 == 0) cache.Erase(ComposeCacheKey(url, "c0"));
  }
  const ProxyCacheStats& stats = cache.stats();
  ASSERT_GT(stats.evictions, 0u);
  ASSERT_GT(stats.oversize_rejections, 0u);
  EXPECT_EQ(sink.events.size(), stats.evictions + stats.oversize_rejections);
  EXPECT_EQ(sink.CountDetail(0) + sink.CountDetail(1), stats.evictions);
  EXPECT_EQ(sink.CountDetail(1), stats.expired_evictions);
  EXPECT_EQ(sink.CountDetail(2), stats.oversize_rejections);
  if (kind == EvictionPolicyKind::kExpiredFirstLru) {
    EXPECT_GT(stats.expired_evictions, 0u);
  } else {
    EXPECT_EQ(stats.expired_evictions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, EvictionTraceTest,
    ::testing::Values(EvictionPolicyKind::kLru,
                      EvictionPolicyKind::kExpiredFirstLru,
                      EvictionPolicyKind::kGds),
    [](const ::testing::TestParamInfo<EvictionPolicyKind>& info) {
      std::string name(eviction::ToString(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(ProxyCacheMetricsTest, ExportsPolicyAndTierCounters) {
  ProxyCache cache(10000, EvictionPolicyKind::kGds);
  cache.Insert(MakeEntry("/a", 4000, kNeverExpires), 0);
  cache.Insert(MakeEntry("/b", 4000, kNeverExpires), 1);
  cache.Insert(MakeEntry("/c", 4000, kNeverExpires), 2);
  obs::MetricsRegistry registry;
  cache.ExportMetrics(registry, "c.");
  EXPECT_EQ(registry.CounterValue("c.insertions"), 3u);
  EXPECT_EQ(registry.CounterValue("c.evictions"), 1u);
  // Every policy pick is one eviction.
  EXPECT_EQ(registry.CounterValue("c.policy_picks"), cache.stats().evictions);
  EXPECT_EQ(registry.CounterValue("c.bytes_used"), cache.bytes_used());
  EXPECT_EQ(registry.CounterValue("c.entries"), 2u);
}

}  // namespace
}  // namespace webcc::http
