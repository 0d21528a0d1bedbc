// The accelerator's invalidation table: per-URL lists of client sites that
// may hold a cached copy.
//
// Following the paper, the server never asks clients whether they cache a
// document — every requester is pessimistically added to the document's site
// list and removed when it is sent an invalidation (so a site that never
// requests the document again receives no further invalidations).
//
// Leases (Section 6) bound the lists: a site entry only earns a place while
// its lease is in force, so list size is bounded by the requests of the last
// lease window, and with two-tier leases a plain GET's near-zero lease keeps
// one-time viewers out of the table entirely.
//
// URLs and client identifiers are interned to dense ids (core::Interner):
// this table sits on the server's per-request hot path (Register on every
// GET/IMS), so the site lists key on integers. The accelerator resolves a
// request's url and site once (InternUrl/InternSite) and drives the id-keyed
// core; the string overloads resolve the names and forward, for tests. The
// site interner survives Clear(), so it is also the set of every site the
// table has ever been shown.
//
// Million-site scale (ROADMAP item 4): site lists are CompactSiteList —
// dense open-addressing tables of 12-byte slots keyed on the site id — and
// lease expiry is indexed by a hashed TimerWheel, so PruneExpired is
// O(expired) amortized instead of a full-table scan, and a repeat viewer's
// renewal refreshes its wheel slot lazily instead of re-registering. The
// wheel is an index only; every expiry decision re-reads the authoritative
// lease through core::LeaseActive, which keeps prune results (and replay
// digests) bit-identical to the old scan at any shard count.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/intern.h"
#include "core/policy.h"
#include "core/site_list.h"
#include "core/timer_wheel.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "util/time.h"

namespace webcc::core {

class InvalidationTable {
 public:
  explicit InvalidationTable(LeaseConfig lease);

  // Registers `client` for `url` following a request of `request_type`
  // (kGet or kIfModifiedSince) at protocol time `now`. Returns the lease
  // expiry granted (net::kNoLease when leases are off). A zero-length lease
  // does not create an entry. A repeat viewer with a live entry is a
  // *renewal*: its expiry is refreshed in place (never shortened) and the
  // timer wheel picks the new slot up lazily — no second entry, no second
  // wheel slot.
  Time Register(std::string_view url, std::string_view client,
                net::MessageType request_type, Time now) {
    return Register(InternUrl(url), InternSite(client), request_type, now);
  }
  Time Register(InternId url_id, InternId site_id,
                net::MessageType request_type, Time now);

  // --- name <-> id ---------------------------------------------------------
  // Ids are dense, in first-sight order, and survive Clear(): a crash
  // loses the lists, never the names.
  InternId InternUrl(std::string_view url) { return urls_.Intern(url); }
  InternId InternSite(std::string_view site) { return clients_.Intern(site); }
  InternId FindUrl(std::string_view url) const { return urls_.Find(url); }
  const std::string& UrlName(InternId url_id) const {
    return urls_.NameOf(url_id);
  }
  // Every site ever interned: with the accelerator interning each requester
  // before the lease check, exactly the sites it has ever served.
  const Interner& sites() const { return clients_; }

  // Collects the sites holding an unexpired lease on `url_id`, site-sorted,
  // and clears the list (each collected site is about to receive an
  // invalidation, after which the server forgets it, as in the paper).
  // Each keeps its lease expiry: the delivery-state machine needs it to
  // decide when a straggler's lease lapses and the write may complete
  // without its ack (Section 6 bound). Entries whose lease already lapsed
  // are dropped through the same expiry accounting as PruneExpired — they
  // emit kLeaseExpiry (site-sorted) and count toward leases_expired(), so
  // the DESIGN §8 event/counter reconciliation holds no matter which path
  // retires an entry.
  struct TakenSite {
    std::string site;
    Time lease_until = net::kNoLease;
  };
  std::vector<TakenSite> TakeSitesWithLeases(InternId url_id, Time now);

  // Silently discards `url`'s whole list: journal replay applying an 'I'
  // record. History replay is not protocol execution — it must not emit
  // events or touch the expiry counters (phase 1 of the accelerator's
  // RecoverFromJournal emits no events), so it does not go through the
  // Take path.
  void DropList(std::string_view url);

  // Re-inserts one entry (journal recovery: rebuilding the table the crash
  // destroyed) and seeds the timer wheel with its expiry. An entry whose
  // lease already lapsed by `now` is dropped here — resurrecting it would
  // inflate entries/storage_bytes until the next prune and fill the wheel
  // with dead slots. Returns whether the entry was restored.
  bool Restore(std::string_view url, std::string_view client,
               Time lease_until, Time now);

  // Full, deterministic (url, site)-sorted dump of the live table. Used to
  // snapshot-compact the journal after recovery and by the fault tests to
  // prove the rebuilt table is a superset of what the crash destroyed.
  struct Snapshot {
    std::string url;
    std::string site;
    Time lease_until = net::kNoLease;
  };
  std::vector<Snapshot> SnapshotEntries() const;

  // Number of live (unexpired) entries for one URL.
  std::size_t ListLength(std::string_view url, Time now) const;

  // Drops expired entries table-wide; returns how many were pruned. The
  // replay calls this at lock-step boundaries so storage numbers reflect
  // live leases only. O(expired + slots passed) amortized via the wheel.
  std::size_t PruneExpired(Time now);

  // One entry dropped by a prune. The views point into the interners, which
  // never discard names, so they stay valid after the entry is erased.
  struct ExpiredEntry {
    std::string_view url;
    std::string_view site;
    Time lease_until = net::kNoLease;
  };

  // Like PruneExpired, but appends the dropped entries to `out` instead of
  // emitting kLeaseExpiry events (and regardless of the trace sink). The
  // sharded accelerator prunes every shard through this, then sorts and
  // emits the union so the event stream is identical at any shard count.
  std::size_t PruneExpiredInto(Time now, std::vector<ExpiredEntry>& out);

  // --- storage accounting (Table 5) ---------------------------------------
  // Total present entries across all URLs (live + expired-not-yet-pruned).
  std::size_t TotalEntries() const { return total_entries_; }
  // Longest current list.
  std::size_t MaxListLength() const;
  // Approximate bytes consumed under the paper's accounting: per entry, the
  // client identifier plus the lease timestamp and list linkage (the paper
  // observes 20-30 bytes per request). Kept model-level so Table 5 numbers
  // stay comparable across container rewrites; MemoryFootprintBytes is the
  // measured counterpart.
  std::uint64_t StorageBytes() const;
  // Measured bytes actually held by the compact lists and the timer wheel
  // (capacity, not live count). At 10^5 sites, ~1000 per URL, it stays
  // under the 40.95 bytes per entry of the node-based layout it replaced
  // (InvalidationTable.LeaseScaleLayoutHoldsAtMost40BytesPerEntry).
  std::uint64_t MemoryFootprintBytes() const;

  // --- expiry/renewal accounting (DESIGN §8 reconciliation) ---------------
  // Entries retired because their lease lapsed — by prune or by a take —
  // i.e. exactly the kLeaseExpiry emissions. Survives Clear() like the
  // accelerator's stats: it is measurement record, not server state.
  std::uint64_t leases_expired() const { return leases_expired_; }
  // Register calls that extended an existing live entry's lease.
  std::uint64_t lease_renewals() const { return lease_renewals_; }

  const LeaseConfig& lease_config() const { return lease_; }

  // Discards everything (server-site crash: the in-memory table dies).
  void Clear();

  // Optional tracing: when set, every entry dropped by PruneExpired or
  // found lapsed by a take emits a kLeaseExpiry event (detail = the expiry
  // that lapsed). nullptr disables.
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  // Snapshots occupancy into `registry` under `prefix` (entries,
  // max_list_length, storage_bytes, urls_tracked, leases_expired,
  // lease_renewals).
  void ExportMetrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const;

 private:
  static constexpr std::uint64_t kPerEntryOverheadBytes = 16;
  static constexpr std::size_t kWheelSlots = 4096;

  // Appends `url`'s lapsed entries to `out` (unsorted; EmitLeaseExpiries
  // sorts) and erases them, charging leases_expired_. Used by the take
  // path — wheel-driven prune erases per entry as slots are visited.
  void ExpireListEntries(InternId url_id, Time now,
                         std::vector<ExpiredEntry>& out);

  void EmitLeaseExpiries(std::vector<ExpiredEntry>& expired, Time now);

  CompactSiteList* FindList(InternId url_id) {
    return url_id < lists_.size() && !lists_[url_id].empty()
               ? &lists_[url_id]
               : nullptr;
  }
  const CompactSiteList* FindList(InternId url_id) const {
    return const_cast<InvalidationTable*>(this)->FindList(url_id);
  }

  void ReleaseList(CompactSiteList& list) {
    list.Reset();
    --urls_tracked_;
  }

  LeaseConfig lease_;
  Interner urls_;
  Interner clients_;
  // Indexed by url id (dense, from urls_). Empty lists are not "tracked".
  std::vector<CompactSiteList> lists_;
  TimerWheel wheel_;
  std::size_t total_entries_ = 0;
  std::size_t urls_tracked_ = 0;
  std::uint64_t leases_expired_ = 0;
  std::uint64_t lease_renewals_ = 0;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::core
