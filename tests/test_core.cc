// Unit tests for core/: adaptive TTL, leases, invalidation table,
// accelerator (including its ever-seen site list).
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/adaptive_ttl.h"
#include "core/invalidation_table.h"
#include "core/lease.h"
#include "core/sharded_accelerator.h"
#include "obs/trace_sink.h"

namespace webcc::core {
namespace {

// The site names TakeSitesWithLeases collects for `url`, in its fan-out
// order; none for a URL the table has never seen.
std::vector<std::string> TakeSites(InvalidationTable& table,
                                   std::string_view url, Time now) {
  std::vector<std::string> sites;
  const InternId url_id = table.FindUrl(url);
  if (url_id == kNoInternId) return sites;
  for (InvalidationTable::TakenSite& taken :
       table.TakeSitesWithLeases(url_id, now)) {
    sites.push_back(std::move(taken.site));
  }
  return sites;
}

// --- adaptive TTL -----------------------------------------------------------------

TEST(AdaptiveTtl, FractionOfAge) {
  AdaptiveTtlConfig config;
  config.factor = 0.2;
  config.min_ttl = 0;
  config.max_ttl = 365 * kDay;
  EXPECT_EQ(ComputeAdaptiveTtl(config, 100 * kDay, 0), 20 * kDay);
}

TEST(AdaptiveTtl, ClampsToMin) {
  AdaptiveTtlConfig config;
  config.factor = 0.2;
  config.min_ttl = kHour;
  // Age of 1 minute would give a 12 s TTL; min applies.
  EXPECT_EQ(ComputeAdaptiveTtl(config, kMinute, 0), kHour);
}

TEST(AdaptiveTtl, ClampsToMax) {
  AdaptiveTtlConfig config;
  config.factor = 0.5;
  config.max_ttl = 10 * kDay;
  EXPECT_EQ(ComputeAdaptiveTtl(config, 1000 * kDay, 0), 10 * kDay);
}

TEST(AdaptiveTtl, NegativeAgeTreatedAsZero) {
  AdaptiveTtlConfig config;
  config.min_ttl = kMinute;
  // Document "modified in the future" (lock-step skew): min TTL.
  EXPECT_EQ(ComputeAdaptiveTtl(config, 0, kHour), kMinute);
}

TEST(AdaptiveTtl, ExpiryIsNowPlusTtl) {
  AdaptiveTtlConfig config;
  config.factor = 0.1;
  config.min_ttl = 0;
  config.max_ttl = 365 * kDay;
  EXPECT_EQ(AdaptiveTtlExpiry(config, 10 * kDay, 0), 11 * kDay);
}

TEST(AdaptiveTtl, YoungDocumentsGetShortTtl) {
  // The paper's SASK effect depends on recently modified documents getting
  // conservative (short) lifetimes.
  AdaptiveTtlConfig config;
  const Time young = ComputeAdaptiveTtl(config, kDay, kDay - kHour);
  const Time old_doc = ComputeAdaptiveTtl(config, kDay, -50 * kDay);
  EXPECT_LT(young, old_doc);
}

// --- leases -----------------------------------------------------------------------

TEST(Lease, NoneGrantsUnbounded) {
  LeaseConfig config;
  config.mode = LeaseMode::kNone;
  EXPECT_EQ(GrantLease(config, net::MessageType::kGet, 100), net::kNoLease);
  EXPECT_EQ(GrantLease(config, net::MessageType::kIfModifiedSince, 100),
            net::kNoLease);
}

TEST(Lease, FixedGrantsDuration) {
  LeaseConfig config;
  config.mode = LeaseMode::kFixed;
  config.duration = 3 * kDay;
  EXPECT_EQ(GrantLease(config, net::MessageType::kGet, kDay), 4 * kDay);
  EXPECT_EQ(GrantLease(config, net::MessageType::kIfModifiedSince, kDay),
            4 * kDay);
}

TEST(Lease, TwoTierDiscriminatesByRequestType) {
  LeaseConfig config;
  config.mode = LeaseMode::kTwoTier;
  config.duration = 3 * kDay;
  config.short_duration = 0;
  EXPECT_EQ(GrantLease(config, net::MessageType::kGet, kDay), kDay);
  EXPECT_EQ(GrantLease(config, net::MessageType::kIfModifiedSince, kDay),
            4 * kDay);
}

TEST(Lease, ActiveSemantics) {
  EXPECT_TRUE(LeaseActive(net::kNoLease, 1000000));
  EXPECT_TRUE(LeaseActive(100, 99));
  EXPECT_FALSE(LeaseActive(100, 100));  // expires at its boundary
  EXPECT_FALSE(LeaseActive(100, 101));
}

TEST(Lease, BoundaryIsHalfOpen) {
  // A lease covers [grant, expiry): the instant before expiry it is alive,
  // at expiry it is dead. Both the proxy's serve-local check and the
  // server's table pruning use this predicate, so at the boundary instant
  // the proxy revalidates exactly when the server stops owing INVALIDATEs.
  LeaseConfig config;
  config.mode = LeaseMode::kFixed;
  config.duration = kHour;
  const Time expiry = GrantLease(config, net::MessageType::kGet, 0);
  ASSERT_EQ(expiry, kHour);
  EXPECT_TRUE(LeaseActive(expiry, expiry - 1));
  EXPECT_FALSE(LeaseActive(expiry, expiry));
  // http::kNeverExpires (int64 max) reads as active through the same
  // predicate, so proxy cache entries need no special-casing.
  EXPECT_TRUE(LeaseActive(std::numeric_limits<Time>::max(), expiry));
}

TEST(InvalidationTable, ExactExpiryExcludedFromFanOut) {
  // Boundary check on the server side: a site whose lease expires at T is
  // not invalidated by a modification processed at exactly T.
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kHour;
  InvalidationTable table(lease);
  table.Register("/a", "c1", net::MessageType::kGet, 0);  // expiry: kHour
  EXPECT_EQ(table.ListLength("/a", kHour - 1), 1u);
  EXPECT_EQ(table.ListLength("/a", kHour), 0u);
  EXPECT_TRUE(TakeSites(table, "/a", kHour).empty());
}

TEST(InvalidationTable, TwoTierExactExpiryBoundary) {
  // The two-tier scheme's short GET lease obeys the same half-open rule:
  // at exactly grant+short_duration the one-time viewer is already gone,
  // one tick earlier it still gets the INVALIDATE.
  LeaseConfig lease;
  lease.mode = LeaseMode::kTwoTier;
  lease.duration = 3 * kDay;
  lease.short_duration = kMinute;
  InvalidationTable table(lease);
  table.Register("/a", "c1", net::MessageType::kGet, 0);  // expiry: kMinute
  EXPECT_EQ(TakeSites(table, "/a", kMinute - 1),
            std::vector<std::string>{"c1"});
  table.Register("/a", "c1", net::MessageType::kGet, 0);
  EXPECT_TRUE(TakeSites(table, "/a", kMinute).empty());
  // The IMS tier gets the long lease; same boundary rule at its expiry.
  table.Register("/a", "c1", net::MessageType::kIfModifiedSince, 0);
  EXPECT_EQ(table.ListLength("/a", 3 * kDay - 1), 1u);
  EXPECT_EQ(table.ListLength("/a", 3 * kDay), 0u);
}

// --- invalidation table --------------------------------------------------------------

TEST(InvalidationTable, RegisterAndTake) {
  InvalidationTable table(LeaseConfig{});
  table.Register("/a", "c1", net::MessageType::kGet, 0);
  table.Register("/a", "c2", net::MessageType::kGet, 0);
  table.Register("/b", "c1", net::MessageType::kGet, 0);
  EXPECT_EQ(table.TotalEntries(), 3u);
  EXPECT_EQ(table.ListLength("/a", 0), 2u);

  const auto sites = TakeSites(table, "/a", 10);
  EXPECT_EQ(sites, (std::vector<std::string>{"c1", "c2"}));
  EXPECT_EQ(table.TotalEntries(), 1u);  // "/b" untouched
  EXPECT_EQ(table.ListLength("/a", 10), 0u);
}

TEST(InvalidationTable, DuplicateRegistrationIsOneEntry) {
  InvalidationTable table(LeaseConfig{});
  table.Register("/a", "c1", net::MessageType::kGet, 0);
  table.Register("/a", "c1", net::MessageType::kGet, 5);
  EXPECT_EQ(table.TotalEntries(), 1u);
}

TEST(InvalidationTable, TakeOnUnknownUrlIsEmpty) {
  InvalidationTable table(LeaseConfig{});
  EXPECT_TRUE(TakeSites(table, "/none", 0).empty());
}

TEST(InvalidationTable, FixedLeaseExpiresEntries) {
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kDay;
  InvalidationTable table(lease);
  table.Register("/a", "c1", net::MessageType::kGet, 0);
  table.Register("/a", "c2", net::MessageType::kGet, 12 * kHour);
  // At t=36h, c1's lease (expiry 24h) lapsed; c2's (36h) is borderline out.
  EXPECT_EQ(table.ListLength("/a", 30 * kHour), 1u);
  const auto sites = TakeSites(table, "/a", 30 * kHour);
  EXPECT_EQ(sites, std::vector<std::string>{"c2"});
}

TEST(InvalidationTable, LeaseRefreshNeverShortens) {
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kDay;
  InvalidationTable table(lease);
  table.Register("/a", "c1", net::MessageType::kGet, 10 * kHour);
  // An earlier-time registration (out-of-order processing) must not pull
  // the expiry back.
  table.Register("/a", "c1", net::MessageType::kGet, kHour);
  EXPECT_EQ(table.ListLength("/a", 30 * kHour), 1u);
}

TEST(InvalidationTable, TwoTierGetNotRemembered) {
  LeaseConfig lease;
  lease.mode = LeaseMode::kTwoTier;
  lease.duration = 3 * kDay;
  lease.short_duration = 0;
  InvalidationTable table(lease);
  table.Register("/a", "c1", net::MessageType::kGet, 100);
  EXPECT_EQ(table.TotalEntries(), 0u);
  table.Register("/a", "c1", net::MessageType::kIfModifiedSince, 200);
  EXPECT_EQ(table.TotalEntries(), 1u);
}

TEST(InvalidationTable, PruneExpiredDropsOnlyDead) {
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kDay;
  InvalidationTable table(lease);
  table.Register("/a", "c1", net::MessageType::kGet, 0);
  table.Register("/b", "c2", net::MessageType::kGet, 20 * kHour);
  EXPECT_EQ(table.PruneExpired(30 * kHour), 1u);
  EXPECT_EQ(table.TotalEntries(), 1u);
  EXPECT_EQ(table.ListLength("/b", 30 * kHour), 1u);
}

// Interns are defined on first use, so the order of {"e":"intern"} lines in
// a buffered trace mirrors event emission order exactly.
std::vector<std::string> InternNamesInOrder(const std::string& jsonl) {
  std::vector<std::string> names;
  std::size_t pos = 0;
  while ((pos = jsonl.find("\"n\":\"", pos)) != std::string::npos) {
    pos += 5;
    const std::size_t end = jsonl.find('"', pos);
    names.push_back(jsonl.substr(pos, end - pos));
    pos = end;
  }
  return names;
}

TEST(InvalidationTable, PruneExpiredEmitsTracesInSortedOrder) {
  // Regression: PruneExpired used to emit kLeaseExpiry events straight out
  // of its unordered_map walk, so the trace stream depended on hash-table
  // layout. Emission must be (url, site)-sorted regardless of how the
  // entries hash.
  LeaseConfig lease;
  lease.mode = LeaseMode::kFixed;
  lease.duration = kDay;
  InvalidationTable table(lease);
  obs::BufferTraceSink sink;
  table.set_trace_sink(&sink);
  for (const char* url : {"/h", "/c", "/f", "/a", "/e", "/b", "/g", "/d"}) {
    table.Register(url, "site-z", net::MessageType::kGet, 0);
    table.Register(url, "site-a", net::MessageType::kGet, 0);
  }
  EXPECT_EQ(table.PruneExpired(30 * kHour), 16u);
  const std::vector<std::string> expected = {
      "/a", "site-a", "site-z", "/b", "/c", "/d", "/e", "/f", "/g", "/h"};
  EXPECT_EQ(InternNamesInOrder(sink.Text()), expected);
}

TEST(InvalidationTable, StorageGrowsWithEntries) {
  InvalidationTable table(LeaseConfig{});
  const auto before = table.StorageBytes();
  for (int i = 0; i < 100; ++i) {
    table.Register("/a", "client-" + std::to_string(i),
                   net::MessageType::kGet, 0);
  }
  // The paper observes 20-30 bytes per request of site-list storage.
  const auto per_entry = (table.StorageBytes() - before) / 100;
  EXPECT_GE(per_entry, 20u);
  EXPECT_LE(per_entry, 40u);
}

TEST(InvalidationTable, MaxListLength) {
  InvalidationTable table(LeaseConfig{});
  table.Register("/a", "c1", net::MessageType::kGet, 0);
  table.Register("/a", "c2", net::MessageType::kGet, 0);
  table.Register("/b", "c1", net::MessageType::kGet, 0);
  EXPECT_EQ(table.MaxListLength(), 2u);
}

TEST(InvalidationTable, ClearDropsEverything) {
  InvalidationTable table(LeaseConfig{});
  table.Register("/a", "c1", net::MessageType::kGet, 0);
  table.Clear();
  EXPECT_EQ(table.TotalEntries(), 0u);
  EXPECT_EQ(table.StorageBytes(), 0u);
}

TEST(InvalidationTable, FanOutOrderDeterministic) {
  InvalidationTable table(LeaseConfig{});
  table.Register("/a", "zeta", net::MessageType::kGet, 0);
  table.Register("/a", "alpha", net::MessageType::kGet, 0);
  table.Register("/a", "mid", net::MessageType::kGet, 0);
  EXPECT_EQ(TakeSites(table, "/a", 0),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

// --- accelerator -----------------------------------------------------------------------

class AcceleratorTest : public ::testing::Test {
 protected:
  AcceleratorTest() : accel_(docs_, LeaseConfig{}) {
    docs_.Add("/a", 1000, 0);
    docs_.Add("/b", 2000, 0);
  }

  net::Request Get(const std::string& url, const std::string& client) {
    net::Request request;
    request.type = net::MessageType::kGet;
    request.url = url;
    request.client_id = client;
    return request;
  }

  http::DocumentStore docs_;
  ShardedAccelerator accel_;
};

TEST_F(AcceleratorTest, RequestRegistersSite) {
  const auto reply = accel_.HandleRequest(Get("/a", "c1"), 10);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, net::MessageType::kReply200);
  EXPECT_EQ(accel_.table(0).ListLength("/a", 10), 1u);
  EXPECT_TRUE(accel_.SiteEverSeen("c1"));
}

TEST_F(AcceleratorTest, UnknownUrlNotRegistered) {
  EXPECT_FALSE(accel_.HandleRequest(Get("/zzz", "c1"), 0).has_value());
  EXPECT_EQ(accel_.table(0).TotalEntries(), 0u);
}

TEST_F(AcceleratorTest, NotifyWithoutChangeProducesNothing) {
  accel_.HandleRequest(Get("/a", "c1"), 0);
  const auto invs = accel_.HandleNotify(net::Notify{"/a"}, 10);
  EXPECT_TRUE(invs.empty());
  EXPECT_EQ(accel_.AggregateStats().modifications_detected, 0u);
}

TEST_F(AcceleratorTest, NotifyAfterTouchInvalidatesRegisteredSites) {
  accel_.HandleRequest(Get("/a", "c1"), 0);
  accel_.HandleRequest(Get("/a", "c2"), 1);
  accel_.HandleRequest(Get("/b", "c3"), 2);
  docs_.Touch("/a", 100);
  const auto invs = accel_.HandleNotify(net::Notify{"/a"}, 100);
  ASSERT_EQ(invs.size(), 2u);
  EXPECT_EQ(invs[0].type, net::MessageType::kInvalidateUrl);
  EXPECT_EQ(invs[0].url, "/a");
  EXPECT_EQ(invs[0].client_id, "c1");
  EXPECT_EQ(invs[1].client_id, "c2");
  // Sites are forgotten after invalidation.
  EXPECT_EQ(accel_.table(0).ListLength("/a", 100), 0u);
  EXPECT_EQ(accel_.AggregateStats().invalidations_generated, 2u);
  EXPECT_EQ(accel_.AggregateStats().list_lengths_at_modification.count(), 1u);
  EXPECT_EQ(accel_.AggregateStats().list_lengths_at_modification.max(), 2);
}

TEST_F(AcceleratorTest, SecondNotifySameVersionSilent) {
  accel_.HandleRequest(Get("/a", "c1"), 0);
  docs_.Touch("/a", 100);
  EXPECT_EQ(accel_.HandleNotify(net::Notify{"/a"}, 100).size(), 1u);
  EXPECT_TRUE(accel_.HandleNotify(net::Notify{"/a"}, 101).empty());
}

TEST_F(AcceleratorTest, FirstSightingViaNotifyDoesNotInvalidate) {
  // Nothing requested "/a" yet; the accelerator has no baseline version and
  // no one can hold a copy.
  docs_.Touch("/a", 100);
  EXPECT_TRUE(accel_.HandleNotify(net::Notify{"/a"}, 100).empty());
}

TEST_F(AcceleratorTest, BrowserBasedDetectionEquivalentToNotify) {
  accel_.HandleRequest(Get("/a", "c1"), 0);
  docs_.Touch("/a", 50);
  const auto invs = accel_.CheckDocument("/a", 50);
  ASSERT_EQ(invs.size(), 1u);
  EXPECT_EQ(invs[0].client_id, "c1");
}

TEST_F(AcceleratorTest, ClientNotReInvalidatedWithoutReRequest) {
  accel_.HandleRequest(Get("/a", "c1"), 0);
  docs_.Touch("/a", 10);
  EXPECT_EQ(accel_.HandleNotify(net::Notify{"/a"}, 10).size(), 1u);
  docs_.Touch("/a", 20);
  // c1 never re-requested: no further invalidations.
  EXPECT_TRUE(accel_.HandleNotify(net::Notify{"/a"}, 20).empty());
}

TEST_F(AcceleratorTest, CrashLosesTableButNotRegistry) {
  accel_.HandleRequest(Get("/a", "c1"), 0);
  accel_.Crash();
  EXPECT_EQ(accel_.table(0).TotalEntries(), 0u);
  EXPECT_TRUE(accel_.SiteEverSeen("c1"));
  EXPECT_FALSE(accel_.SiteEverSeen("c2"));
}

TEST_F(AcceleratorTest, RecoverNotifiesEverySiteEverSeen) {
  ShardedAccelerator accel(docs_, LeaseConfig{}, /*num_shards=*/1, "srv");
  accel.HandleRequest(Get("/a", "c1"), 0);
  accel.HandleRequest(Get("/b", "c2"), 0);
  accel.Crash();
  const auto notices = accel.Recover();
  ASSERT_EQ(notices.size(), 2u);
  EXPECT_EQ(notices[0].type, net::MessageType::kInvalidateServer);
  EXPECT_EQ(notices[0].server, "srv");
  EXPECT_EQ(notices[0].client_id, "c1");
  EXPECT_EQ(notices[1].client_id, "c2");
}

TEST_F(AcceleratorTest, TwoTierGetOnlySiteStillHearsRecovery) {
  // "b-viewer" only ever sent a plain GET under two-tier leases: a
  // zero-length lease, so it never sat in a site list. It may still cache
  // the document, so the recovery broadcast must reach it — the requester
  // is on the ever-seen list before the lease check drops it.
  LeaseConfig lease;
  lease.mode = LeaseMode::kTwoTier;
  lease.duration = 2 * kDay;
  lease.short_duration = 0;
  ShardedAccelerator accel(docs_, lease, /*num_shards=*/1, "srv");
  accel.HandleRequest(Get("/a", "b-viewer"), kHour);
  net::Request ims = Get("/b", "c-renewer");
  ims.type = net::MessageType::kIfModifiedSince;
  accel.HandleRequest(ims, kHour);
  accel.HandleRequest(Get("/b", "a-viewer"), kHour);
  EXPECT_EQ(accel.TotalEntries(), 1u);  // only the IMS holds a lease
  EXPECT_TRUE(accel.SiteEverSeen("b-viewer"));

  accel.Crash();
  std::vector<std::string> sites;
  for (const net::Invalidation& notice : accel.Recover()) {
    EXPECT_EQ(notice.type, net::MessageType::kInvalidateServer);
    sites.push_back(notice.client_id);
  }
  // Sorted by name, not in first-sight order.
  EXPECT_EQ(sites,
            (std::vector<std::string>{"a-viewer", "b-viewer", "c-renewer"}));
}

TEST_F(AcceleratorTest, ModificationBeforeFirstRequestThenRequestThenTouch) {
  docs_.Touch("/a", 5);  // never seen by the accelerator
  accel_.HandleRequest(Get("/a", "c1"), 10);
  docs_.Touch("/a", 20);
  const auto invs = accel_.HandleNotify(net::Notify{"/a"}, 20);
  ASSERT_EQ(invs.size(), 1u);  // baseline was pinned at request time
}

TEST_F(AcceleratorTest, TwoTierLeaseStampedIntoReply) {
  LeaseConfig lease;
  lease.mode = LeaseMode::kTwoTier;
  lease.duration = 2 * kDay;
  lease.short_duration = 0;
  ShardedAccelerator accel(docs_, lease);
  const auto get_reply = accel.HandleRequest(Get("/a", "c1"), kHour);
  ASSERT_TRUE(get_reply.has_value());
  EXPECT_EQ(get_reply->lease_until, kHour);  // zero-length lease
  net::Request ims;
  ims.type = net::MessageType::kIfModifiedSince;
  ims.url = "/a";
  ims.client_id = "c1";
  ims.if_modified_since = 0;
  const auto ims_reply = accel.HandleRequest(ims, kHour);
  ASSERT_TRUE(ims_reply.has_value());
  EXPECT_EQ(ims_reply->lease_until, kHour + 2 * kDay);
}

// --- enum names -------------------------------------------------------------------

// Every enumerator must map to a real display name: "?" is the
// switch-fell-through sentinel, and duplicates would make CLI output and
// metric prefixes ambiguous.
TEST(PolicyNames, ProtocolToStringIsExhaustiveAndDistinct) {
  constexpr Protocol kAll[] = {
      Protocol::kAdaptiveTtl, Protocol::kPollEveryTime, Protocol::kInvalidation,
      Protocol::kPiggybackValidation, Protocol::kPiggybackInvalidation};
  std::set<std::string> names;
  for (const Protocol protocol : kAll) {
    const char* name = ToString(protocol);
    EXPECT_STRNE(name, "?") << static_cast<int>(protocol);
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(kAll));
}

TEST(PolicyNames, LeaseModeToStringIsExhaustiveAndDistinct) {
  constexpr LeaseMode kAll[] = {LeaseMode::kNone, LeaseMode::kFixed,
                                LeaseMode::kTwoTier};
  std::set<std::string> names;
  for (const LeaseMode mode : kAll) {
    const char* name = ToString(mode);
    EXPECT_STRNE(name, "?") << static_cast<int>(mode);
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(kAll));
}

}  // namespace
}  // namespace webcc::core
