#include "core/sharded_accelerator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/lease.h"
#include "http/origin.h"

namespace webcc::core {
namespace {

std::string MetricName(std::string_view prefix, std::string_view leaf) {
  std::string full(prefix);
  full += leaf;
  return full;
}

void ExportStats(const AcceleratorStats& stats,
                 obs::MetricsRegistry& registry, std::string_view prefix) {
  registry.SetCounter(MetricName(prefix, "requests"), stats.requests);
  registry.SetCounter(MetricName(prefix, "notifies"), stats.notifies);
  registry.SetCounter(MetricName(prefix, "modifications_detected"),
                      stats.modifications_detected);
  registry.SetCounter(MetricName(prefix, "invalidations_generated"),
                      stats.invalidations_generated);
  registry.MergeHistogram(
      MetricName(prefix, "site_list_length_at_modification"),
      stats.list_lengths_at_modification);
}

}  // namespace

ShardedAccelerator::ShardedAccelerator(const http::DocumentStore& store,
                                       LeaseConfig lease,
                                       std::uint32_t num_shards,
                                       std::string server_name)
    : store_(&store), ring_(num_shards), server_name_(std::move(server_name)) {
  for (std::uint32_t i = 0; i < num_shards; ++i) shards_.emplace_back(lease);
}

std::optional<net::Reply> ShardedAccelerator::HandleRequest(
    const net::Request& request, Time now) {
  std::optional<net::Reply> reply = http::OriginReply(*store_, request);
  if (!reply.has_value()) return reply;
  Shard& shard = ShardFor(request.url);
  InvalidationTable& table = shard.table;
  ++shard.stats.requests;

  // Resolve both names once; everything below keys on the ids. Interning
  // the requester before the lease check is what makes the site interners
  // the ever-seen list: a two-tier GET earns no list entry, but its site
  // must still hear the recovery broadcast.
  const InternId url_id = table.InternUrl(request.url);
  const InternId site_id = table.InternSite(request.client_id);

  // First sighting of a document pins the version baseline so a later
  // notify can tell "changed since last invalidation" from "never seen".
  // The reply carries the store's current version.
  VersionPin& pin = shard.PinOf(url_id);
  const bool first_sighting = !pin.seen;
  if (first_sighting) pin = {reply->version, true};
  if (journal_enabled_) {
    // Append-before-act: the journal records the registration before the
    // table mutates, so a torn tail can only describe an entry that was
    // never created. GrantLease is pure, so computing it here and again
    // inside Register cannot disagree.
    if (first_sighting) {
      shard.journal.AppendVersion(request.url, reply->version);
    }
    const Time lease = GrantLease(table.lease_config(), request.type, now);
    if (LeaseActive(lease, now)) {
      shard.journal.AppendRegister(request.url, request.client_id, lease);
    }
  }

  // Pessimistic registration: any requester might cache the document.
  reply->lease_until = table.Register(url_id, site_id, request.type, now);
  if (reply->lease_until != net::kNoLease) {
    obs::Emit(trace_sink_, {.type = obs::EventType::kLeaseGrant,
                            .at = now,
                            .url = request.url,
                            .site = request.client_id,
                            .detail = reply->lease_until});
  }
  return reply;
}

std::vector<net::Invalidation> ShardedAccelerator::HandleNotify(
    const net::Notify& notify, Time now) {
  Shard& shard = ShardFor(notify.url);
  ++shard.stats.notifies;
  obs::Emit(trace_sink_,
            {.type = obs::EventType::kNotify, .at = now, .url = notify.url});
  return DetectAndInvalidate(shard, notify.url, now);
}

std::vector<net::Invalidation> ShardedAccelerator::CheckDocument(
    std::string_view url, Time now) {
  return DetectAndInvalidate(ShardFor(url), url, now);
}

std::vector<net::Invalidation> ShardedAccelerator::DetectAndInvalidate(
    Shard& shard, std::string_view url, Time now) {
  std::vector<net::Invalidation> out;
  const http::Document* doc = store_->Find(url);
  if (doc == nullptr) return out;

  const InternId url_id = shard.table.InternUrl(url);
  VersionPin& pin = shard.PinOf(url_id);
  const bool first_sighting = !pin.seen;
  if (first_sighting || doc->version == pin.version) {
    if (first_sighting) {
      pin = {doc->version, true};
      if (journal_enabled_) shard.journal.AppendVersion(url, doc->version);
    }
    return out;  // unchanged (or nothing could have cached it yet)
  }
  pin.version = doc->version;
  ++shard.stats.modifications_detected;
  if (journal_enabled_) {
    // Journal the new baseline and the list wipe before taking the list.
    shard.journal.AppendVersion(url, doc->version);
    shard.journal.AppendInvalidate(url);
  }

  std::vector<InvalidationTable::TakenSite> sites =
      shard.table.TakeSitesWithLeases(url_id, now);
  shard.stats.list_lengths_at_modification.Record(
      static_cast<double>(sites.size()));
  out.reserve(sites.size());
  for (InvalidationTable::TakenSite& taken : sites) {
    net::Invalidation inv;
    inv.type = net::MessageType::kInvalidateUrl;
    inv.url = std::string(url);
    inv.client_id = std::move(taken.site);
    inv.lease_until = taken.lease_until;
    obs::Emit(trace_sink_, {.type = obs::EventType::kInvalidateGenerated,
                            .at = now,
                            .url = inv.url,
                            .site = inv.client_id});
    out.push_back(std::move(inv));
  }
  shard.stats.invalidations_generated += out.size();
  return out;
}

void ShardedAccelerator::Crash() {
  for (Shard& shard : shards_) {
    shard.table.Clear();
    shard.pins.clear();
    // The stats survive: they are the experiment's measurement record, not
    // server state.
  }
}

bool ShardedAccelerator::SiteEverSeen(std::string_view site) const {
  return std::any_of(shards_.begin(), shards_.end(), [site](const Shard& s) {
    return s.table.sites().Find(site) != kNoInternId;
  });
}

std::vector<net::Invalidation> ShardedAccelerator::Recover() {
  // A site that requested documents on several shards must receive exactly
  // one server-address invalidation, and sorting keeps the emission order
  // identical to the unsharded tier.
  std::vector<std::string_view> sites;
  for (const Shard& shard : shards_) {
    const Interner& names = shard.table.sites();
    for (InternId id = 0; id < names.size(); ++id) {
      sites.push_back(names.NameOf(id));
    }
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  std::vector<net::Invalidation> out;
  out.reserve(sites.size());
  for (const std::string_view site : sites) {
    net::Invalidation inv;
    inv.type = net::MessageType::kInvalidateServer;
    inv.server = server_name_;
    inv.client_id = site;
    inv.recovery = true;
    obs::Emit(trace_sink_, {.type = obs::EventType::kInvalidateServer,
                            .site = inv.client_id,
                            .label = server_name_});
    out.push_back(std::move(inv));
  }
  return out;
}

ShardedAccelerator::RecoveryOutcome ShardedAccelerator::RecoverFromJournal(
    Time now) {
  RecoveryOutcome outcome;
  std::vector<std::string_view> urls;  // every shard's pinned URLs
  for (Shard& shard : shards_) {
    const SiteJournal::ReplayResult replayed = shard.journal.Replay();
    if (replayed.damaged) ++outcome.shards_damaged;
    outcome.records_applied += replayed.records_applied;
    outcome.records_rejected += replayed.records_rejected;
    for (const SiteJournal::Entry& entry : replayed.entries) {
      switch (entry.kind) {
        case 'R':
          // Restore drops entries whose lease lapsed while the server was
          // down — resurrecting them would inflate the rebuilt table's
          // entries/storage_bytes until the next prune.
          shard.table.Restore(entry.url, entry.site, entry.lease_until, now);
          break;
        case 'I':
          // History replay, not protocol execution: discard the list
          // silently. The Take path would emit kLeaseExpiry for lapsed
          // entries, and rebuild must emit no events.
          shard.table.DropList(entry.url);
          break;
        case 'V':
          shard.PinOf(shard.table.InternUrl(entry.url)) = {entry.version,
                                                           true};
          break;
        default:
          break;  // Replay never yields other kinds
      }
    }

    // Compact: the history is now embodied in the table, so rewrite the
    // journal as a snapshot of the restored state (version pins first,
    // then live registrations, both in sorted order for determinism).
    std::vector<InternId> pinned;
    for (InternId id = 0; id < shard.pins.size(); ++id) {
      if (shard.pins[id].seen) pinned.push_back(id);
    }
    std::sort(pinned.begin(), pinned.end(), [&shard](InternId a, InternId b) {
      return shard.table.UrlName(a) < shard.table.UrlName(b);
    });
    shard.journal.Clear();
    for (const InternId id : pinned) {
      const std::string& url = shard.table.UrlName(id);
      shard.journal.AppendVersion(url, shard.pins[id].version);
      urls.push_back(url);
    }
    const std::vector<InvalidationTable::Snapshot> entries =
        shard.table.SnapshotEntries();
    outcome.entries_restored += entries.size();
    for (const InvalidationTable::Snapshot& entry : entries) {
      shard.journal.AppendRegister(entry.url, entry.site, entry.lease_until);
    }
  }
  outcome.journal_damaged = outcome.shards_damaged > 0;

  if (outcome.journal_damaged) {
    outcome.invalidations = Recover();
    return outcome;
  }

  // Phase 2 in global URL order: the shards' URL sets are disjoint, so
  // their sorted concatenation walks the sequence one journal would. The
  // views stay valid: the interners never discard a name.
  std::sort(urls.begin(), urls.end());
  for (const std::string_view url : urls) {
    for (net::Invalidation& inv : CheckDocument(url, now)) {
      inv.recovery = true;
      outcome.invalidations.push_back(std::move(inv));
    }
  }
  return outcome;
}

std::size_t ShardedAccelerator::PruneExpired(Time now) {
  std::vector<InvalidationTable::ExpiredEntry> expired;
  std::size_t pruned = 0;
  for (Shard& shard : shards_) {
    pruned += shard.table.PruneExpiredInto(now, expired);
  }
  if (trace_sink_ != nullptr) {
    std::sort(expired.begin(), expired.end(),
              [](const InvalidationTable::ExpiredEntry& a,
                 const InvalidationTable::ExpiredEntry& b) {
                if (a.url != b.url) return a.url < b.url;
                return a.site < b.site;
              });
    for (const InvalidationTable::ExpiredEntry& e : expired) {
      obs::Emit(trace_sink_, {.type = obs::EventType::kLeaseExpiry,
                              .at = now,
                              .url = e.url,
                              .site = e.site,
                              .detail = e.lease_until});
    }
  }
  return pruned;
}

std::uint64_t ShardedAccelerator::StorageBytes() const {
  std::uint64_t bytes = 0;
  for (const Shard& shard : shards_) bytes += shard.table.StorageBytes();
  return bytes;
}

std::size_t ShardedAccelerator::TotalEntries() const {
  std::size_t entries = 0;
  for (const Shard& shard : shards_) entries += shard.table.TotalEntries();
  return entries;
}

std::size_t ShardedAccelerator::MaxListLength() const {
  // A (url, site) list lives wholly inside one shard, so the global longest
  // list is the max over shards — invariant across shard counts.
  std::size_t longest = 0;
  for (const Shard& shard : shards_) {
    longest = std::max(longest, shard.table.MaxListLength());
  }
  return longest;
}

AcceleratorStats ShardedAccelerator::AggregateStats() const {
  AcceleratorStats total;
  for (const Shard& shard : shards_) {
    const AcceleratorStats& stats = shard.stats;
    total.requests += stats.requests;
    total.notifies += stats.notifies;
    total.modifications_detected += stats.modifications_detected;
    total.invalidations_generated += stats.invalidations_generated;
    total.list_lengths_at_modification.Merge(
        stats.list_lengths_at_modification);
  }
  return total;
}

std::uint64_t ShardedAccelerator::TableFootprintBytes() const {
  std::uint64_t bytes = 0;
  for (const Shard& shard : shards_) {
    bytes += shard.table.MemoryFootprintBytes();
  }
  return bytes;
}

std::vector<InvalidationTable::Snapshot> ShardedAccelerator::SnapshotEntries()
    const {
  std::vector<InvalidationTable::Snapshot> out;
  for (const Shard& shard : shards_) {
    std::vector<InvalidationTable::Snapshot> entries =
        shard.table.SnapshotEntries();
    out.insert(out.end(), std::make_move_iterator(entries.begin()),
               std::make_move_iterator(entries.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const InvalidationTable::Snapshot& a,
               const InvalidationTable::Snapshot& b) {
              if (a.url != b.url) return a.url < b.url;
              return a.site < b.site;
            });
  return out;
}

void ShardedAccelerator::set_trace_sink(obs::TraceSink* sink) {
  // A take's lease expiries come from one URL's list, so the table emits
  // them itself; PruneExpired's cross-shard stream is emitted here.
  trace_sink_ = sink;
  for (Shard& shard : shards_) shard.table.set_trace_sink(sink);
}

void ShardedAccelerator::ExportMetrics(obs::MetricsRegistry& registry,
                                       std::string_view prefix) const {
  const auto export_shard = [&registry](const Shard& shard,
                                        std::string_view shard_prefix) {
    ExportStats(shard.stats, registry, shard_prefix);
    shard.table.ExportMetrics(registry, MetricName(shard_prefix, "table."));
  };
  if (shards_.size() == 1) {
    export_shard(shards_.front(), prefix);
    return;
  }
  ExportStats(AggregateStats(), registry, prefix);
  registry.SetCounter(MetricName(prefix, "table.entries"), TotalEntries());
  registry.SetCounter(MetricName(prefix, "table.max_list_length"),
                      MaxListLength());
  registry.SetCounter(MetricName(prefix, "table.storage_bytes"),
                      StorageBytes());
  // Expiry/renewal counters sum across shards and stay shard-count
  // invariant: each (url, site) entry lives on exactly one shard, and the
  // wheel never changes WHICH entries a prune at `now` retires.
  std::uint64_t leases_expired = 0;
  std::uint64_t lease_renewals = 0;
  for (const Shard& shard : shards_) {
    leases_expired += shard.table.leases_expired();
    lease_renewals += shard.table.lease_renewals();
  }
  registry.SetCounter(MetricName(prefix, "table.leases_expired"),
                      leases_expired);
  registry.SetCounter(MetricName(prefix, "table.lease_renewals"),
                      lease_renewals);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    export_shard(shards_[i],
                 MetricName(prefix, "shard" + std::to_string(i) + "."));
  }
}

}  // namespace webcc::core
