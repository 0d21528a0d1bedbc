// Unit tests for http/: document store, origin server, proxy cache.
#include <gtest/gtest.h>

#include <string>

#include "http/document_store.h"
#include "http/origin.h"
#include "http/proxy_cache.h"

namespace webcc::http {
namespace {

using eviction::EvictionPolicyKind;

// --- DocumentStore ---------------------------------------------------------------

TEST(DocumentStore, AddAndFind) {
  DocumentStore store;
  EXPECT_TRUE(store.Add("/a", 100, 5));
  const Document* doc = store.Find("/a");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->size_bytes, 100u);
  EXPECT_EQ(doc->last_modified, 5);
  EXPECT_EQ(doc->version, 1u);
}

TEST(DocumentStore, DuplicateAddRejected) {
  DocumentStore store;
  EXPECT_TRUE(store.Add("/a", 100, 0));
  EXPECT_FALSE(store.Add("/a", 200, 0));
  EXPECT_EQ(store.Find("/a")->size_bytes, 100u);
}

TEST(DocumentStore, FindMissingReturnsNull) {
  DocumentStore store;
  EXPECT_EQ(store.Find("/missing"), nullptr);
}

TEST(DocumentStore, TouchBumpsVersionAndMtime) {
  DocumentStore store;
  store.Add("/a", 100, 0);
  EXPECT_TRUE(store.Touch("/a", 77));
  const Document* doc = store.Find("/a");
  EXPECT_EQ(doc->version, 2u);
  EXPECT_EQ(doc->last_modified, 77);
  EXPECT_TRUE(store.Touch("/a", 99));
  EXPECT_EQ(doc->version, 3u);
}

TEST(DocumentStore, TouchUnknownFails) {
  DocumentStore store;
  EXPECT_FALSE(store.Touch("/nope", 1));
}

TEST(DocumentStore, PointersStableAcrossAdds) {
  DocumentStore store;
  store.Add("/first", 1, 0);
  const Document* first = store.Find("/first");
  for (int i = 0; i < 1000; ++i) {
    store.Add("/doc" + std::to_string(i), 1, 0);
  }
  EXPECT_EQ(store.Find("/first"), first);
}

TEST(DocumentStore, TotalBytesAccumulates) {
  DocumentStore store;
  store.Add("/a", 100, 0);
  store.Add("/b", 250, 0);
  EXPECT_EQ(store.total_bytes(), 350u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(DocumentStore, NegativeInitialMtimeAllowed) {
  DocumentStore store;
  store.Add("/old", 10, -50 * kDay);
  EXPECT_EQ(store.Find("/old")->last_modified, -50 * kDay);
}

// --- OriginReply ------------------------------------------------------------------

net::Request MakeGet(const std::string& url) {
  net::Request request;
  request.type = net::MessageType::kGet;
  request.url = url;
  request.client_id = "c";
  return request;
}

net::Request MakeIms(const std::string& url, Time since) {
  net::Request request;
  request.type = net::MessageType::kIfModifiedSince;
  request.url = url;
  request.client_id = "c";
  request.if_modified_since = since;
  return request;
}

TEST(OriginServer, GetReturns200WithBody) {
  DocumentStore store;
  store.Add("/a", 4096, 10);
  const auto reply = OriginReply(store, MakeGet("/a"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply200);
  EXPECT_EQ(reply->body_bytes, 4096u);
  EXPECT_EQ(reply->last_modified, 10);
  EXPECT_EQ(reply->version, 1u);
}

TEST(OriginServer, UnknownUrlIsNullopt) {
  DocumentStore store;
  EXPECT_FALSE(OriginReply(store, MakeGet("/missing")).has_value());
}

TEST(OriginServer, ImsFreshReturns304) {
  DocumentStore store;
  store.Add("/a", 4096, 10);
  const auto reply = OriginReply(store, MakeIms("/a", 10));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply304);
  EXPECT_EQ(reply->body_bytes, 0u);
}

TEST(OriginServer, ImsStaleReturns200) {
  DocumentStore store;
  store.Add("/a", 4096, 10);
  store.Touch("/a", 50);
  const auto reply = OriginReply(store, MakeIms("/a", 10));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply200);
  EXPECT_EQ(reply->version, 2u);
  EXPECT_EQ(reply->last_modified, 50);
}

TEST(OriginServer, ImsWithLaterTimestampStill304) {
  // A client clock ahead of the server must not force a transfer.
  DocumentStore store;
  store.Add("/a", 100, 10);
  const auto reply = OriginReply(store, MakeIms("/a", 999));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply304);
}

TEST(OriginServer, LeaseLeftUnstamped) {
  DocumentStore store;
  store.Add("/a", 100, 0);
  EXPECT_EQ(OriginReply(store, MakeGet("/a"))->lease_until, net::kNoLease);
}

// --- ProxyCache -------------------------------------------------------------------

CacheEntry MakeEntry(const std::string& key, std::uint64_t size,
                     Time ttl_expires = kNeverExpires) {
  CacheEntry entry;
  entry.key = key;
  entry.url = key.substr(0, key.find('@'));
  entry.owner = key.substr(key.find('@') + 1);
  entry.size_bytes = size;
  entry.version = 1;
  entry.ttl_expires = ttl_expires;
  return entry;
}

TEST(ProxyCache, InsertAndLookup) {
  ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/a@c", 100), 0);
  CacheEntry* entry = cache.Lookup("/a@c");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->size_bytes, 100u);
  EXPECT_EQ(cache.bytes_used(), 100u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(ProxyCache, LookupMissingIsNull) {
  ProxyCache cache(1000, EvictionPolicyKind::kLru);
  EXPECT_EQ(cache.Lookup("/nope@c"), nullptr);
}

TEST(ProxyCache, InsertReplacesExisting) {
  ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/a@c", 100), 0);
  CacheEntry bigger = MakeEntry("/a@c", 300);
  bigger.version = 2;
  cache.Insert(bigger, 0);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.bytes_used(), 300u);
  EXPECT_EQ(cache.Lookup("/a@c")->version, 2u);
}

TEST(ProxyCache, EvictsLruWhenFull) {
  ProxyCache cache(300, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/a@c", 100), 0);
  cache.Insert(MakeEntry("/b@c", 100), 0);
  cache.Insert(MakeEntry("/c@c", 100), 0);
  cache.Lookup("/a@c");                      // touch /a: /b is now LRU
  cache.Insert(MakeEntry("/d@c", 100), 0);   // evicts /b
  EXPECT_NE(cache.Peek("/a@c"), nullptr);
  EXPECT_EQ(cache.Peek("/b@c"), nullptr);
  EXPECT_NE(cache.Peek("/c@c"), nullptr);
  EXPECT_NE(cache.Peek("/d@c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ProxyCache, PeekDoesNotPromote) {
  ProxyCache cache(200, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/a@c", 100), 0);
  cache.Insert(MakeEntry("/b@c", 100), 0);
  cache.Peek("/a@c");                       // must NOT promote /a
  cache.Insert(MakeEntry("/c@c", 100), 0);  // evicts /a (still LRU)
  EXPECT_EQ(cache.Peek("/a@c"), nullptr);
  EXPECT_NE(cache.Peek("/b@c"), nullptr);
}

TEST(ProxyCache, ObjectLargerThanCapacityNotCached) {
  ProxyCache cache(100, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/big@c", 5000), 0);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ProxyCache, ExpiredFirstEvictsExpiredBeforeLru) {
  ProxyCache cache(300, EvictionPolicyKind::kExpiredFirstLru);
  cache.Insert(MakeEntry("/fresh@c", 100, /*ttl=*/1000), 0);
  cache.Insert(MakeEntry("/expired@c", 100, /*ttl=*/10), 0);
  cache.Insert(MakeEntry("/strong@c", 100), 0);
  cache.Lookup("/expired@c");  // most recently used, but expired
  // At now=500 the expired entry must go first despite being MRU.
  cache.Insert(MakeEntry("/new@c", 100), 500);
  EXPECT_EQ(cache.Peek("/expired@c"), nullptr);
  EXPECT_NE(cache.Peek("/fresh@c"), nullptr);
  EXPECT_NE(cache.Peek("/strong@c"), nullptr);
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
}

TEST(ProxyCache, ExpiredFirstFallsBackToLruWhenNoneExpired) {
  ProxyCache cache(200, EvictionPolicyKind::kExpiredFirstLru);
  cache.Insert(MakeEntry("/a@c", 100, /*ttl=*/100000), 0);
  cache.Insert(MakeEntry("/b@c", 100, /*ttl=*/100000), 0);
  cache.Insert(MakeEntry("/c@c", 100, /*ttl=*/100000), 50);
  EXPECT_EQ(cache.Peek("/a@c"), nullptr);  // plain LRU victim
  EXPECT_EQ(cache.stats().expired_evictions, 0u);
}

TEST(ProxyCache, SetTtlExpiryReindexes) {
  ProxyCache cache(200, EvictionPolicyKind::kExpiredFirstLru);
  cache.Insert(MakeEntry("/a@c", 100, /*ttl=*/10), 0);
  CacheEntry* entry = cache.Lookup("/a@c");
  ASSERT_NE(entry, nullptr);
  // Revalidation extends the TTL; the old heap record must not evict it.
  cache.SetTtlExpiry(*entry, 100000);
  cache.Insert(MakeEntry("/b@c", 100, /*ttl=*/100000), 500);
  cache.Insert(MakeEntry("/c@c", 100, /*ttl=*/100000), 500);
  // /a had to be evicted by LRU (not as expired) or survive; it must not
  // have been evicted via the stale ttl=10 record.
  EXPECT_EQ(cache.stats().expired_evictions, 0u);
}

TEST(ProxyCache, EraseRemoves) {
  ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/a@c", 100), 0);
  EXPECT_TRUE(cache.Erase("/a@c"));
  EXPECT_FALSE(cache.Erase("/a@c"));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.stats().erased, 1u);
}

TEST(ProxyCache, MarkAllQuestionable) {
  ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/a@c", 100), 0);
  cache.Insert(MakeEntry("/b@c", 100), 0);
  cache.MarkAllQuestionable();
  EXPECT_TRUE(cache.Peek("/a@c")->questionable);
  EXPECT_TRUE(cache.Peek("/b@c")->questionable);
}

TEST(ProxyCache, MarkQuestionableWhereFilters) {
  ProxyCache cache(1000, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/a@alice", 100), 0);
  cache.Insert(MakeEntry("/a@bob", 100), 0);
  const std::size_t marked = cache.MarkQuestionableWhere(
      [](const CacheEntry& entry) { return entry.owner == "alice"; });
  EXPECT_EQ(marked, 1u);
  EXPECT_TRUE(cache.Peek("/a@alice")->questionable);
  EXPECT_FALSE(cache.Peek("/a@bob")->questionable);
}

TEST(ProxyCache, ZeroSizeEntriesAllowed) {
  ProxyCache cache(100, EvictionPolicyKind::kLru);
  cache.Insert(MakeEntry("/empty@c", 0), 0);
  EXPECT_NE(cache.Peek("/empty@c"), nullptr);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ProxyCache, ManyInsertionsStayWithinCapacity) {
  ProxyCache cache(1000, EvictionPolicyKind::kExpiredFirstLru);
  for (int i = 0; i < 500; ++i) {
    cache.Insert(MakeEntry("/doc" + std::to_string(i) + "@c", 90,
                           /*ttl=*/i * 10),
                 i * 5);
    EXPECT_LE(cache.bytes_used(), 1000u);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace webcc::http
