// Client-side proxy cache in the style of Harvest "cached".
//
// Entries are namespaced per real client (the replay inserts composite
// url+client keys built by http::ComposeCacheKey, so one proxy process
// hosts many independent per-client caches exactly as the paper does).
//
// Replacement is delegated to the eviction kernel (src/http/eviction/): the
// cache owns all storage and indexes — the LRU list, the key and url
// indexes, and the TTL index — and an EvictionPolicy strategy chooses every
// victim through the narrow EvictionHost view. Three policies ship:
// plain LRU, Harvest's expired-first LRU (the paper traces its SASK
// hit-ratio anomaly to this policy interacting with adaptive TTL's
// conservative lifetimes — a freshly modified document gets a short TTL and
// is evicted first despite being hot), and GreedyDual-Size.
//
// Internally every resident entry has a dense entry id: it is handed out
// when the entry becomes resident and goes back to a free list when the
// entry leaves. The key index is a core::IdTable of (entry id, key hash)
// slots whose probes compare against the resident entry's own key, so a
// lookup hashes its string exactly once and no key is stored twice. The
// entry index, the TTL index and the policy's state are indexed by entry
// id, so all of them are bounded by peak residency, not by the keys ever
// inserted. No victim choice depends on an id value: every tie breaks on a
// stamp or an order counter. URLs are interned (core::Interner) for the
// per-URL index; that table is bounded by the distinct URLs. The public
// interface stays string-keyed.
//
// The TTL index is a util::IndexedHeap holding exactly one (expiry, stamp)
// record per resident entry whose TTL is finite and not yet taken by
// TakeExpired: removing an entry erases its record, and SetTtlExpiry
// replaces it.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/intern.h"
#include "http/eviction/policy.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/time.h"

namespace webcc::http {

struct CacheEntry {
  std::string key;  // http::ComposeCacheKey(url, owner)
  std::string url;
  std::string owner;  // the real client this namespaced entry belongs to
  std::uint64_t size_bytes = 0;
  Time last_modified = 0;
  std::uint64_t version = 0;
  Time fetched_at = 0;
  Time ttl_expires = kNeverExpires;
  Time lease_expires = kNeverExpires;
  // Set by server-address invalidations and proxy recovery: the entry must
  // be revalidated with If-Modified-Since before it may be served.
  bool questionable = false;

 private:
  friend class ProxyCache;
  // Drawn at every insert and re-arm: breaks TTL-index ties toward the
  // older stamp.
  std::uint64_t heap_stamp_ = 0;
  eviction::EntryId id_ = eviction::kNoEntryId;
  std::uint32_t key_hash_ = 0;  // core::HashName(key)
  core::InternId url_id_ = core::kNoInternId;
};

struct ProxyCacheStats {
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired_evictions = 0;  // evicted via the expired-first rule
  std::uint64_t erased = 0;             // removed by invalidation
  // Objects larger than the whole cache, dropped at Insert (kEviction
  // trace detail 2).
  std::uint64_t oversize_rejections = 0;
};

class ProxyCache : private eviction::EvictionHost {
 public:
  ProxyCache(std::uint64_t capacity_bytes, eviction::EvictionPolicyKind policy)
      : capacity_bytes_(capacity_bytes),
        policy_(eviction::MakeEvictionPolicy(policy)) {}

  ProxyCache(const ProxyCache&) = delete;
  ProxyCache& operator=(const ProxyCache&) = delete;

  // Returns the entry and promotes it to most-recently-used, or nullptr.
  // The pointer stays valid until the next Insert/Erase on this cache.
  // The time argument is unused.
  CacheEntry* Lookup(const std::string& key, Time now = 0);

  // Lookup without the LRU promotion (for metrics/tests).
  CacheEntry* Peek(const std::string& key);

  // Inserts (or replaces) an entry, evicting per the policy until it fits.
  // Objects larger than the whole cache are dropped (counted as
  // oversize_rejections). `now` is the protocol time used to judge which
  // entries are expired.
  void Insert(CacheEntry entry, Time now);

  // Removes an entry (invalidation path). Returns whether it existed.
  bool Erase(const std::string& key);

  // Changes an entry's TTL expiry, keeping the expired-first index in sync.
  // `entry` must be owned by this cache.
  void SetTtlExpiry(CacheEntry& entry, Time expires);

  // Removes every owner's copy of `url` (proxy-wide invalidation, as PSI
  // performs). Returns the number of entries removed.
  std::size_t EraseByUrl(const std::string& url);

  // Collects up to `max_items` live entries whose TTL has expired at `now`,
  // consuming their expiry-index records: the caller must either erase each
  // returned entry or re-arm it with SetTtlExpiry (PCV does one or the
  // other after the bulk validation). Pointers stay valid until the next
  // Insert/Erase.
  std::vector<CacheEntry*> TakeExpired(Time now, std::size_t max_items);

  // Proxy-recovery sweep: every entry must revalidate before serving.
  void MarkAllQuestionable();

  // Selective sweep (e.g. server-address invalidation for one real client's
  // entries). Returns the number of entries marked.
  std::size_t MarkQuestionableWhere(
      const std::function<bool(const CacheEntry&)>& predicate);

  std::uint64_t bytes_used() const { return bytes_used_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t entry_count() const { return lru_.size(); }
  const ProxyCacheStats& stats() const { return stats_; }
  eviction::EvictionPolicyKind policy_kind() const { return policy_->kind(); }

  // Records in the TTL index, for the heap-growth regression test.
  std::size_t ttl_heap_size() const { return ttl_index_.size(); }

  // One past the largest entry id handed out so far: at most the peak
  // number of resident entries.
  std::size_t entry_id_limit() const { return index_.size(); }

  // Bytes held by the cache's indexes (capacity, not live count): the key
  // table, the entry index and its free list, the per-URL index, the TTL
  // index and the policy's state. The entries themselves are not counted.
  std::uint64_t MemoryFootprintBytes() const;

  // Optional tracing: when set, every eviction emits a kEviction event
  // stamped with the `now` the mutating call received. detail codes:
  // 0 = policy victim, 1 = expired-first rule, 2 = oversize rejection.
  // nullptr (the default) disables.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  // Snapshots the cache's counters and occupancy into `registry`, prefixing
  // every metric name (e.g. prefix "proxy_cache." -> "proxy_cache.evictions").
  void ExportMetrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const;

 private:
  using LruList = std::list<CacheEntry>;

  // The resident entry with id `id`, or nullptr.
  LruList::iterator* FindResident(eviction::EntryId id) {
    if (id >= index_.size() || !index_[id].resident) return nullptr;
    return &index_[id].entry;
  }
  // The resident entry with `key`, whose core::HashName is `hash`.
  LruList::iterator* FindResident(std::string_view key, std::uint32_t hash) {
    return FindResident(keys_.Find(hash, [this, key](eviction::EntryId id) {
      return index_[id].entry->key == key;
    }));
  }

  // EvictionHost — the policy's window into the indexes.
  eviction::EntryId LruTailId() const override;
  const eviction::TtlIndex& Ttl() const override { return ttl_index_; }

  static eviction::EntryView ViewOf(const CacheEntry& entry) {
    return eviction::EntryView{entry.id_, entry.size_bytes};
  }

  // Gives the entry at `it`, just placed in a list, an entry id and enters
  // it in every index.
  void Admit(LruList::iterator it);
  bool EraseKey(std::string_view key, std::uint32_t hash);
  // Evicts the policy's victim to free space for one entry.
  void EvictOne(Time now);
  void RemoveEntry(LruList::iterator it);
  // Draws `entry`'s next stamp and, when its TTL is finite, queues its
  // TTL-index record. The entry must have no queued record.
  void IndexTtl(CacheEntry& entry);

  std::uint64_t capacity_bytes_;
  std::unique_ptr<eviction::EvictionPolicy> policy_;
  std::uint64_t bytes_used_ = 0;
  std::uint64_t next_stamp_ = 1;

  core::IdTable keys_;  // resident keys -> entry id
  core::Interner urls_;

  LruList lru_;  // front = most recently used
  struct IndexSlot {
    LruList::iterator entry;
    bool resident = false;
  };
  std::vector<IndexSlot> index_;             // by entry id
  std::vector<eviction::EntryId> free_ids_;  // ids of entries that left
  // By url id: the ids of the entries caching it (one per owner), in
  // insertion order (keeps EraseByUrl deterministic).
  std::vector<std::vector<eviction::EntryId>> url_index_;
  eviction::TtlIndex ttl_index_;  // keyed by entry id
  ProxyCacheStats stats_;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::http
