// The Harvest-style server accelerator: the invalidation protocol's
// server-side brain.
//
// The accelerator fronts the origin server (the paper runs it on port 80
// with HTTPD moved to 81) and performs the three operations of Section 4:
//
//  1. tracking remote sites that cache each document (InvalidationTable,
//     fed pessimistically by every request),
//  2. detecting modifications — via check-in NOTIFY messages from the
//     modifier ("notify") or via a freshness check hinted by a local
//     browser request ("browser-based" detection), and
//  3. producing INVALIDATE messages for the sites on the modified
//     document's list.
//
// It is transport-agnostic: it turns protocol inputs into protocol outputs,
// and the replay engine (or the live socket server) moves them. Costs and
// queueing live with the caller.
//
// Its state is split into shards on a consistent-hash ring (HashRing), so
// every operation keyed by URL — registration, notify, browser check,
// journal records — touches exactly one shard. A shard is a table, not an
// accelerator: its invalidation table, version pins, checksummed
// write-ahead journal and stats. The accelerator keeps one observable
// behaviour at every shard count:
//
//  * a (url, site) list lives wholly inside one shard, so the invalidation
//    fan-out for any one modification is identical to the unsharded tier;
//  * operations that cross shards and emit events (lease pruning,
//    recovery) merge and sort the shards' output before emitting it, so
//    the trace stream is shard-count invariant;
//  * journal recovery rebuilds each shard from its own journal in turn
//    (phase 1), then runs the targeted-invalidation pass (phase 2) in
//    global URL order — the union of the per-shard rebuilds is exactly the
//    table a single journal would have restored.
//
// One aggregate that is NOT shard-invariant: sitelist storage bytes. Each
// shard interns the site names it has seen, so a site caching documents on
// k shards is counted k times; DESIGN.md §11 discusses the bound.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/hash_ring.h"
#include "core/invalidation_table.h"
#include "core/journal.h"
#include "core/policy.h"
#include "http/document_store.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "stats/latency.h"

namespace webcc::core {

struct AcceleratorStats {
  std::uint64_t requests = 0;
  std::uint64_t notifies = 0;
  // Notifies/checks that found an actual version change.
  std::uint64_t modifications_detected = 0;
  std::uint64_t invalidations_generated = 0;
  // Site-list length at each detected modification (Table 5's "Avg./Max.
  // SiteList" statistics are taken over exactly these). Integer sums stay
  // exact in the histogram's double sum below 2^53.
  stats::LatencyStats list_lengths_at_modification;
};

class ShardedAccelerator {
 public:
  ShardedAccelerator(const http::DocumentStore& store, LeaseConfig lease,
                     std::uint32_t num_shards = 1,
                     std::string server_name = "origin");

  std::uint32_t num_shards() const { return ring_.num_shards(); }
  std::uint32_t ShardOf(std::string_view url) const {
    return ring_.ShardOf(url);
  }

  // --- protocol operations (each on the URL's shard) ------------------------
  // Serves a GET/IMS at protocol time `now`: answers from the origin,
  // registers the requesting site, and stamps the granted lease into the
  // reply. std::nullopt for unknown URLs.
  std::optional<net::Reply> HandleRequest(const net::Request& request,
                                          Time now);

  // Check-in notification: if the document changed since the accelerator
  // last saw it, returns one INVALIDATE per registered site (and forgets
  // them). Empty when nothing changed.
  std::vector<net::Invalidation> HandleNotify(const net::Notify& notify,
                                              Time now);

  // Browser-based detection: a request from a local browser for a local
  // document suggests checking its modification time. Same outcome as a
  // notify when the document did change.
  std::vector<net::Invalidation> CheckDocument(std::string_view url, Time now);

  // --- failure handling -----------------------------------------------------
  // Server-site crash: every shard's in-memory table and version pins die
  // together; the ever-seen site list and the journals survive.
  void Crash();

  // The paper's ever-seen list: every site this accelerator has served,
  // zero-length two-tier leases included. It is the union of the shards'
  // site interners, which survive Crash(); HandleRequest interns the
  // requester before the lease check so that they hold exactly the served
  // sites.
  bool SiteEverSeen(std::string_view site) const;

  // Server-address broadcast over the ever-seen list, deduplicated and
  // sorted by name — the same site set (and emission order) at every shard
  // count.
  std::vector<net::Invalidation> Recover();

  // --- write-ahead journal (Section 4's persistent site lists) -------------
  // When enabled, every registration / invalidation / version pin is
  // journaled append-before-act on its URL's shard, so RecoverFromJournal
  // can rebuild the exact table instead of broadcasting.
  void EnableJournal(bool enabled) { journal_enabled_ = enabled; }
  bool journal_enabled() const { return journal_enabled_; }

  struct RecoveryOutcome {
    std::vector<net::Invalidation> invalidations;
    bool journal_damaged = false;     // any shard's journal damaged
    std::size_t shards_damaged = 0;   // how many
    std::size_t records_applied = 0;
    std::size_t records_rejected = 0;
    std::size_t entries_restored = 0;
  };

  // Call after Crash(). Phase 1 replays each shard's journal into its table
  // and version pins, emitting no events, and compacts the journal to a
  // snapshot of the restored state. An intact journal restores its table
  // exactly; a damaged one restores its valid prefix, a conservative
  // superset, since replaying fewer 'I' records can only leave extra
  // entries. Phase 2: any damaged journal degrades the whole recovery to
  // the server-address broadcast (partial targeted recovery plus partial
  // broadcast would double-invalidate); all-intact journals yield targeted
  // invalidations (CheckDocument) in global URL order.
  RecoveryOutcome RecoverFromJournal(Time now);

  // --- cross-shard maintenance ---------------------------------------------
  // Prunes every shard, then emits the merged kLeaseExpiry stream in
  // (url, site) order — identical to the unsharded table's emission.
  std::size_t PruneExpired(Time now);

  // --- aggregates (Table 5 storage accounting, engine snapshots) -----------
  std::uint64_t StorageBytes() const;
  std::size_t TotalEntries() const;
  std::size_t MaxListLength() const;
  AcceleratorStats AggregateStats() const;
  // Measured heap bytes of the invalidation tables, summed over shards
  // (InvalidationTable::MemoryFootprintBytes).
  std::uint64_t TableFootprintBytes() const;

  // Merged (url, site)-sorted dump across shards; the fault tests compare
  // this across shard counts to prove recovery rebuilds the same union.
  std::vector<InvalidationTable::Snapshot> SnapshotEntries() const;

  // One shard's table and journal, for tests.
  InvalidationTable& table(std::uint32_t shard) { return shards_[shard].table; }
  SiteJournal& journal(std::uint32_t shard) { return shards_[shard].journal; }

  // Optional tracing: lease grants (kLeaseGrant, detail = expiry),
  // check-ins (kNotify), modification detection (kInvalidateGenerated per
  // INVALIDATE produced), lease expiries and the recovery broadcast.
  void set_trace_sink(obs::TraceSink* sink);

  // One shard: its counters plus "<prefix>table.". N shards: the same keys
  // summed under `prefix` (the tables' urls_tracked aside), plus each
  // shard's own export under "<prefix>shard<i>.".
  void ExportMetrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const;

 private:
  // Document version as of the last invalidation (or first sighting);
  // modifications are detected as version advances past this. `seen` is
  // explicit because a journal 'V' record may pin any version, 0 included.
  struct VersionPin {
    std::uint64_t version = 0;
    bool seen = false;
  };

  struct Shard {
    explicit Shard(LeaseConfig lease) : table(lease) {}

    VersionPin& PinOf(InternId url_id) {
      if (url_id >= pins.size()) pins.resize(url_id + 1);
      return pins[url_id];
    }

    InvalidationTable table;
    // Indexed by the table's url id.
    std::vector<VersionPin> pins;
    SiteJournal journal;
    AcceleratorStats stats;
  };

  Shard& ShardFor(std::string_view url) {
    return shards_[ring_.ShardOf(url)];
  }

  std::vector<net::Invalidation> DetectAndInvalidate(Shard& shard,
                                                     std::string_view url,
                                                     Time now);

  const http::DocumentStore* store_;
  HashRing ring_;
  std::deque<Shard> shards_;  // never relocated: a table is not copyable
  std::string server_name_;
  bool journal_enabled_ = false;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::core
