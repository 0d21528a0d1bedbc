// Model-based property test: ProxyCache against a deliberately simple
// reference implementation.
//
// The production cache combines an LRU list, a hash index, a URL index, an
// indexed TTL heap and a pluggable eviction policy (with its own credit
// heap for GreedyDual-Size); the reference below is a plain vector with
// O(n) everything. Randomized operation sequences must keep the two in
// lockstep — membership, byte accounting and LRU / expired-first / GDS
// victims included. The GDS credit arithmetic is replicated
// operation-for-operation (same fixed-order double sums), so even its
// victims are bit-exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "http/proxy_cache.h"
#include "util/rng.h"

namespace webcc::http {
namespace {

using eviction::EvictionPolicyKind;

// The reference: exact semantics, no cleverness.
class ReferenceCache {
 public:
  ReferenceCache(std::uint64_t capacity, EvictionPolicyKind policy)
      : capacity_(capacity), policy_(policy) {}

  struct Entry {
    std::string key;
    std::string url;
    std::uint64_t size = 0;
    Time ttl_expires = kNeverExpires;
    std::uint64_t stamp = 0;  // insertion order, for expiry tie-breaks
    double h = 0.0;           // GDS credit
    std::uint64_t order = 0;
  };

  struct Stats {
    std::uint64_t evictions = 0;
    std::uint64_t expired_evictions = 0;
    std::uint64_t oversize_rejections = 0;
  };

  const Entry* Lookup(const std::string& key) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key != key) continue;
      Entry entry = std::move(entries_[i]);
      entries_.erase(entries_.begin() + static_cast<long>(i));
      entries_.insert(entries_.begin(), std::move(entry));
      if (policy_ == EvictionPolicyKind::kGds) GdsCredit(entries_.front());
      return &entries_.front();
    }
    return nullptr;
  }

  bool Contains(const std::string& key) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&key](const Entry& e) { return e.key == key; });
  }

  void Insert(Entry entry, Time now) {
    Erase(entry.key);
    if (entry.size > capacity_) {
      ++stats_.oversize_rejections;
      return;
    }
    while (bytes_ + entry.size > capacity_) EvictOne(now);
    entry.stamp = next_stamp_++;
    bytes_ += entry.size;
    entries_.insert(entries_.begin(), std::move(entry));
    if (policy_ == EvictionPolicyKind::kGds) GdsCredit(entries_.front());
  }

  bool Erase(const std::string& key) {
    return EraseIf([&key](const Entry& e) { return e.key == key; }) > 0;
  }

  std::size_t EraseByUrl(const std::string& url) {
    return EraseIf([&url](const Entry& e) { return e.url == url; });
  }

  std::uint64_t bytes() const { return bytes_; }
  std::size_t size() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  void GdsCredit(Entry& entry) {
    entry.h = gds_inflation_ +
              1.0 / static_cast<double>(std::max<std::uint64_t>(entry.size, 1));
    entry.order = next_order_++;
  }

  template <typename Pred>
  std::size_t EraseIf(Pred pred) {
    std::size_t erased = 0;
    for (std::size_t i = entries_.size(); i > 0; --i) {
      if (!pred(entries_[i - 1])) continue;
      bytes_ -= entries_[i - 1].size;
      entries_.erase(entries_.begin() + static_cast<long>(i - 1));
      ++erased;
    }
    return erased;
  }

  // Victim choice, mirroring each policy's PickVictim. Returns the index
  // plus whether the expired-first rule (rather than plain recency) chose
  // it.
  struct Victim {
    std::size_t index = 0;
    bool expired_rule = false;
  };

  Victim PickVictim(Time now) {
    if (policy_ == EvictionPolicyKind::kExpiredFirstLru) {
      // The production TTL heap pops by (expiry, stamp).
      bool found = false;
      std::size_t index = 0;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& entry = entries_[i];
        if (entry.ttl_expires > now) continue;
        const Entry& best = entries_[index];
        if (!found || entry.ttl_expires < best.ttl_expires ||
            (entry.ttl_expires == best.ttl_expires &&
             entry.stamp < best.stamp)) {
          found = true;
          index = i;
        }
      }
      if (found) return {index, true};
      return {entries_.size() - 1, false};
    }
    if (policy_ == EvictionPolicyKind::kGds) {
      std::size_t index = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        const Entry& best = entries_[index];
        const Entry& candidate = entries_[i];
        if (candidate.h < best.h ||
            (candidate.h == best.h && candidate.order < best.order)) {
          index = i;
        }
      }
      gds_inflation_ = entries_[index].h;
      return {index, false};
    }
    return {entries_.size() - 1, false};  // plain LRU
  }

  void EvictOne(Time now) {
    ASSERT_FALSE(entries_.empty());
    const Victim victim = PickVictim(now);
    bytes_ -= entries_[victim.index].size;
    entries_.erase(entries_.begin() + static_cast<long>(victim.index));
    ++stats_.evictions;
    if (victim.expired_rule) ++stats_.expired_evictions;
  }

  std::uint64_t capacity_;
  EvictionPolicyKind policy_;
  std::uint64_t bytes_ = 0;
  std::uint64_t next_stamp_ = 1;
  double gds_inflation_ = 0.0;
  std::uint64_t next_order_ = 0;
  Stats stats_;
  std::vector<Entry> entries_;  // front = most recently used
};

CacheEntry MakeEntry(int doc, int owner, std::uint64_t size, Time ttl) {
  CacheEntry entry;
  entry.url = "/d" + std::to_string(doc);
  entry.owner = "c" + std::to_string(owner);
  entry.key = entry.url + "@" + entry.owner;
  entry.size_bytes = size;
  entry.version = 1;
  entry.ttl_expires = ttl;
  return entry;
}

struct ModelParams {
  EvictionPolicyKind policy;
  std::uint64_t capacity;
  std::uint64_t seed;
};

// The roomy cache holds about six of the 100-499-byte objects; the tight
// one one or two, so most inserts evict several victims at once.
constexpr std::uint64_t kRoomyCapacity = 2000;
constexpr std::uint64_t kTightCapacity = 600;

class CacheModelTest : public ::testing::TestWithParam<ModelParams> {};

TEST_P(CacheModelTest, RandomOperationsStayInLockstep) {
  const ModelParams params = GetParam();
  ProxyCache cache(params.capacity, params.policy);
  ReferenceCache reference(params.capacity, params.policy);
  util::Rng rng(params.seed);

  Time now = 0;
  for (int step = 0; step < 6000; ++step) {
    now += static_cast<Time>(rng.NextBelow(50));
    const int doc = static_cast<int>(rng.NextBelow(12));
    const int owner = static_cast<int>(rng.NextBelow(3));
    const std::string key =
        "/d" + std::to_string(doc) + "@c" + std::to_string(owner);

    switch (rng.NextBelow(6)) {
      case 0:
      case 1: {  // insert
        // Distinct sizes/TTLs exercise both eviction paths; TTLs near `now`
        // flip between fresh and expired as time advances. The occasional
        // oversize object is rejected.
        const std::uint64_t size = rng.NextBool(0.05)
                                       ? 2200
                                       : 100 + rng.NextBelow(400);
        const Time ttl = rng.NextBool(0.3)
                             ? kNeverExpires
                             : now + static_cast<Time>(rng.NextBelow(120)) -
                                   40;
        cache.Insert(MakeEntry(doc, owner, size, ttl), now);
        ReferenceCache::Entry entry;
        entry.key = key;
        entry.url = "/d" + std::to_string(doc);
        entry.size = size;
        entry.ttl_expires = ttl;
        reference.Insert(entry, now);
        break;
      }
      case 2:
      case 3: {  // lookup (promotes in both)
        CacheEntry* got = cache.Lookup(key);
        const auto* expected = reference.Lookup(key);
        ASSERT_EQ(got != nullptr, expected != nullptr) << "step " << step;
        if (got != nullptr) {
          EXPECT_EQ(got->size_bytes, expected->size);
          EXPECT_EQ(got->ttl_expires, expected->ttl_expires);
        }
        break;
      }
      case 4: {  // erase
        EXPECT_EQ(cache.Erase(key), reference.Erase(key)) << "step " << step;
        break;
      }
      case 5: {  // erase by url
        const std::string url = "/d" + std::to_string(doc);
        EXPECT_EQ(cache.EraseByUrl(url), reference.EraseByUrl(url))
            << "step " << step;
        break;
      }
    }

    ASSERT_EQ(cache.bytes_used(), reference.bytes())
        << "step " << step << " at now=" << now;
    ASSERT_EQ(cache.entry_count(), reference.size()) << "step " << step;
  }

  // The whole decision history must match, not just the final occupancy.
  const ProxyCacheStats& got = cache.stats();
  const ReferenceCache::Stats& want = reference.stats();
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.expired_evictions, want.expired_evictions);
  EXPECT_EQ(got.oversize_rejections, want.oversize_rejections);

  // Final membership sweep.
  for (int doc = 0; doc < 12; ++doc) {
    for (int owner = 0; owner < 3; ++owner) {
      const std::string key =
          "/d" + std::to_string(doc) + "@c" + std::to_string(owner);
      EXPECT_EQ(cache.Peek(key) != nullptr, reference.Contains(key)) << key;
    }
  }
}

// Three seeds per policy and capacity: the roomy cache runs 1-3, 7-9 and
// 13-15, the tight one 4-6, 10-12 and 16-18.
std::vector<ModelParams> Sweep() {
  std::vector<ModelParams> params;
  std::uint64_t seed = 1;
  for (const EvictionPolicyKind policy :
       {EvictionPolicyKind::kLru, EvictionPolicyKind::kExpiredFirstLru,
        EvictionPolicyKind::kGds}) {
    for (const std::uint64_t capacity : {kRoomyCapacity, kTightCapacity}) {
      for (int i = 0; i < 3; ++i) {
        params.push_back(ModelParams{policy, capacity, seed++});
      }
    }
  }
  return params;
}

std::string SweepName(const ::testing::TestParamInfo<ModelParams>& info) {
  std::string name;
  switch (info.param.policy) {
    case EvictionPolicyKind::kLru:
      name = "Lru";
      break;
    case EvictionPolicyKind::kExpiredFirstLru:
      name = "ExpiredFirst";
      break;
    case EvictionPolicyKind::kGds:
      name = "Gds";
      break;
  }
  name += info.param.capacity == kTightCapacity ? "Tight" : "Flat";
  return name + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CacheModelTest,
                         ::testing::ValuesIn(Sweep()), SweepName);

}  // namespace
}  // namespace webcc::http
