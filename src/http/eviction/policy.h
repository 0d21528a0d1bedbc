// The eviction kernel: one strategy class per replacement policy, driving
// every victim choice the proxy cache makes.
//
// This repeats the refactor shape of core/consistency (PR 3): the cache
// owns all entry storage and indexes — the LRU list, the key and url
// indexes, and the TTL index — and the policy is a pure strategy that is
// notified of entry lifecycle events (OnInsert/OnHit/OnErase) and asked to
// choose victims (PickVictim). The policy reads the cache's indexes through
// the narrow EvictionHost view instead of duplicating them, so the
// expired-first policy reads the *same* TTL index that PCV's TakeExpired
// consumes.
//
// Decision table (see DESIGN.md §13 for the paper mapping):
//
//   policy           PickVictim chooses                 state kept
//   ---------------  --------------------------------   -----------------
//   lru              the LRU-list tail                  none (host order)
//   expired-first    earliest-expiring entry whose TTL  none (host TTL
//                    has lapsed, else the LRU tail      index)
//   gds              smallest GreedyDual-Size credit    one indexed heap of
//                    H = L + 1/size (inflation L)       per-entry credits
//
// Policies never allocate entry storage and never see strings: entries are
// identified by their entry id (EntryId), which the cache recycles once the
// entry leaves, so a policy drops an entry's state at its OnErase.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>

#include "obs/metrics.h"
#include "util/indexed_heap.h"
#include "util/time.h"

namespace webcc::http {

// Sentinel expiry for "never expires" (strong-consistency entries).
// Defined here so the kernel does not depend on proxy_cache.h (which
// includes this header).
inline constexpr Time kNeverExpires = std::numeric_limits<Time>::max();

namespace eviction {

enum class EvictionPolicyKind { kLru, kExpiredFirstLru, kGds };

// Stable spellings for flags and metrics: "lru", "expired-first", "gds".
std::string_view ToString(EvictionPolicyKind kind);
// Parses a ToString spelling. Returns false (leaving `out` untouched) for
// anything else; callers list ValidEvictionPolicyNames() in their error.
bool ParseEvictionPolicyKind(std::string_view name, EvictionPolicyKind& out);
std::string_view ValidEvictionPolicyNames();

// A resident entry's id. The cache hands one out when an entry becomes
// resident and takes it back when the entry leaves, so ids stay below the
// peak number of resident entries.
using EntryId = std::uint32_t;
inline constexpr EntryId kNoEntryId = 0xffffffffu;

// The per-entry facts a policy may see.
struct EntryView {
  EntryId id = kNoEntryId;
  std::uint64_t size_bytes = 0;
};

struct Victim {
  EntryId id = kNoEntryId;
  // The expired-first rule chose it (kEviction trace detail 1).
  bool expired_rule = false;
};

struct EvictionPolicyStats {
  std::uint64_t picks = 0;          // victims chosen
  std::uint64_t expired_picks = 0;  // ... via the expired-first rule
};

// One record of the cache's TTL index: a resident entry whose TTL is finite
// and has not been taken by ProxyCache::TakeExpired. `stamp` is the cache's
// monotone insert/re-arm stamp, so expiry ties go to the older stamp.
struct TtlRecord {
  Time expires = 0;
  std::uint64_t stamp = 0;
  EntryId id = kNoEntryId;
};
struct ExpiresBefore {
  bool operator()(const TtlRecord& a, const TtlRecord& b) const {
    return a.expires != b.expires ? a.expires < b.expires : a.stamp < b.stamp;
  }
};
using TtlIndex = util::IndexedHeap<TtlRecord, ExpiresBefore>;

// The narrow view of the owning cache a policy may consult while picking a
// victim.
class EvictionHost {
 public:
  virtual ~EvictionHost() = default;

  // Id of the least-recently-used entry. Never called on an empty cache.
  virtual EntryId LruTailId() const = 0;

  // The cache's TTL index (shared with TakeExpired).
  virtual const TtlIndex& Ttl() const = 0;
};

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual EvictionPolicyKind kind() const = 0;

  // Entry lifecycle, driven by the owning cache. OnInsert fires after the
  // entry is resident (and stamped); OnHit after an LRU promotion; OnErase
  // before removal.
  virtual void OnInsert(const EntryView& entry) = 0;
  virtual void OnHit(const EntryView& entry) = 0;
  virtual void OnErase(const EntryView& entry) = 0;

  // Chooses the next victim. Only called with at least one resident entry;
  // must return a resident id. The cache then erases the victim, so the
  // policy sees its OnErase.
  virtual Victim PickVictim(Time now, const EvictionHost& host) = 0;

  const EvictionPolicyStats& stats() const { return stats_; }

  // Policy-specific gauges under `prefix` (e.g. GDS's inflation offset).
  // The base implementation exports the shared pick counters.
  virtual void ExportStats(obs::MetricsRegistry& registry,
                           std::string_view prefix) const;

  // Bytes held by per-entry policy state (capacity, not live count).
  virtual std::uint64_t MemoryFootprintBytes() const { return 0; }

 protected:
  EvictionPolicyStats stats_;
};

// Builds the strategy for `kind`.
std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind);

}  // namespace eviction
}  // namespace webcc::http
