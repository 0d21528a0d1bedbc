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
// The accelerator is transport-agnostic: it turns protocol inputs into
// protocol outputs, and the replay engine (or the live socket server)
// moves them. Costs/queueing live with the caller.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/invalidation_table.h"
#include "core/journal.h"
#include "core/policy.h"
#include "http/document_store.h"
#include "http/origin.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace webcc::core {

struct AcceleratorStats {
  std::uint64_t requests = 0;
  std::uint64_t notifies = 0;
  // Notifies/checks that found an actual version change.
  std::uint64_t modifications_detected = 0;
  std::uint64_t invalidations_generated = 0;
  // Site-list length at each detected modification (Table 5's "Avg./Max.
  // SiteList" statistics are taken over exactly these).
  std::vector<std::size_t> list_lengths_at_modification;
};

class Accelerator {
 public:
  Accelerator(const http::DocumentStore& store, LeaseConfig lease)
      : origin_(store), store_(&store), table_(lease) {}

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
  std::vector<net::Invalidation> CheckDocument(std::string_view url,
                                               Time now);

  // --- failure handling ----------------------------------------------------
  // Server-site crash: the in-memory invalidation table is lost; the
  // ever-seen site list and the write-ahead journal survive.
  void Crash();

  // Recovery itself (the INVSRV broadcast, or phase 2 of journal recovery)
  // lives in ShardedAccelerator, which sequences it across shards, a
  // single shard included.

  // The paper's ever-seen list: every site this accelerator has served,
  // zero-length two-tier leases included. It is the table's site interner,
  // which survives Crash(); HandleRequest interns the requester before the
  // lease check so that it holds exactly the served sites.
  bool SiteEverSeen(std::string_view site) const {
    return table_.sites().Find(site) != kNoInternId;
  }
  // The same set, sorted by name (the INVSRV broadcast order).
  std::vector<std::string_view> SitesEverSeen() const;

  // --- write-ahead journal (Section 4's persistent site lists) -------------
  // When enabled, every registration / invalidation / version pin is
  // journaled append-before-act, so RebuildFromJournal can rebuild the
  // exact table instead of broadcasting.
  void EnableJournal(bool enabled) { journal_enabled_ = enabled; }
  bool journal_enabled() const { return journal_enabled_; }
  SiteJournal& journal() { return journal_; }
  const SiteJournal& journal() const { return journal_; }

  // Phase 1 of journal recovery (call after Crash()): replays the journal
  // into the table and version baselines and compacts it to a snapshot of
  // the restored state, emitting no events and producing no invalidations.
  // Intact journal: the table is restored exactly. Damaged journal: the
  // valid prefix is restored — a conservative superset, since replaying
  // fewer 'I' records can only leave extra entries. The sharded
  // accelerator rebuilds every shard through this, then runs phase 2
  // (targeted invalidations via CheckDocument, or the broadcast when any
  // journal is damaged) across shards in global URL order so the recovery
  // stream is identical at any shard count.
  struct RebuildOutcome {
    bool journal_damaged = false;
    std::size_t records_applied = 0;
    std::size_t records_rejected = 0;
    std::size_t entries_restored = 0;
  };
  RebuildOutcome RebuildFromJournal(Time now);

  // Sorted URLs with a journaled version baseline (phase 2's candidates).
  std::vector<std::string> JournaledUrls() const;

  InvalidationTable& table() { return table_; }
  const InvalidationTable& table() const { return table_; }
  const AcceleratorStats& stats() const { return stats_; }

  // Optional tracing: lease grants (kLeaseGrant, detail = expiry),
  // modification detection (kInvalidateGenerated per INVALIDATE produced)
  // and check-ins (kNotify). The sink also propagates to the invalidation
  // table (lease expiries).
  void set_trace_sink(obs::TraceSink* sink) {
    trace_sink_ = sink;
    table_.set_trace_sink(sink);
  }

  // Snapshots AcceleratorStats into `registry` under `prefix`; the nested
  // invalidation table exports under "<prefix>table.".
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
  VersionPin& PinOf(InternId url_id) {
    if (url_id >= last_seen_version_.size()) {
      last_seen_version_.resize(url_id + 1);
    }
    return last_seen_version_[url_id];
  }

  std::vector<net::Invalidation> DetectAndInvalidate(std::string_view url,
                                                     Time now);

  http::OriginServer origin_;
  const http::DocumentStore* store_;
  InvalidationTable table_;
  // Indexed by the table's url id.
  std::vector<VersionPin> last_seen_version_;
  AcceleratorStats stats_;
  SiteJournal journal_;
  bool journal_enabled_ = false;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::core
