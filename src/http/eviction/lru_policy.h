// Plain LRU and the paper's expired-first variant (Harvest's rule: prefer
// evicting entries whose TTL has already lapsed, in expiry order, before
// touching the recency order). Both are stateless over the host: recency
// comes from the cache's LRU list and expiry candidates from its TTL index.
#pragma once

#include "http/eviction/policy.h"

namespace webcc::http::eviction {

class LruPolicy : public EvictionPolicy {
 public:
  EvictionPolicyKind kind() const override {
    return EvictionPolicyKind::kLru;
  }
  void OnInsert(const EntryView&) override {}
  void OnHit(const EntryView&) override {}
  void OnErase(const EntryView&) override {}

  Victim PickVictim(Time /*now*/, const EvictionHost& host) override {
    ++stats_.picks;
    return Victim{host.LruTailId(), /*expired_rule=*/false};
  }
};

class ExpiredFirstLruPolicy : public EvictionPolicy {
 public:
  EvictionPolicyKind kind() const override {
    return EvictionPolicyKind::kExpiredFirstLru;
  }
  void OnInsert(const EntryView&) override {}
  void OnHit(const EntryView&) override {}
  void OnErase(const EntryView&) override {}

  Victim PickVictim(Time now, const EvictionHost& host) override {
    ++stats_.picks;
    const TtlIndex& ttl = host.Ttl();
    // The earliest expiry, when it has lapsed; else the LRU tail. The
    // victim's removal erases its record.
    if (!ttl.empty() && ttl.top().expires <= now) {
      ++stats_.expired_picks;
      return Victim{ttl.top().id, /*expired_rule=*/true};
    }
    return Victim{host.LruTailId(), /*expired_rule=*/false};
  }
};

}  // namespace webcc::http::eviction
