#include "core/sharded_accelerator.h"

#include <algorithm>
#include <utility>

namespace webcc::core {

ShardedAccelerator::ShardedAccelerator(const http::DocumentStore& store,
                                       LeaseConfig lease,
                                       std::uint32_t num_shards,
                                       std::string server_name)
    : ring_(num_shards), server_name_(std::move(server_name)) {
  shards_.reserve(num_shards);
  for (std::uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Accelerator>(store, lease));
  }
}

std::optional<net::Reply> ShardedAccelerator::HandleRequest(
    const net::Request& request, Time now) {
  return shards_[ring_.ShardOf(request.url)]->HandleRequest(request, now);
}

std::vector<net::Invalidation> ShardedAccelerator::HandleNotify(
    const net::Notify& notify, Time now) {
  return shards_[ring_.ShardOf(notify.url)]->HandleNotify(notify, now);
}

std::vector<net::Invalidation> ShardedAccelerator::CheckDocument(
    std::string_view url, Time now) {
  return shards_[ring_.ShardOf(url)]->CheckDocument(url, now);
}

void ShardedAccelerator::Crash() {
  for (const std::unique_ptr<Accelerator>& shard : shards_) shard->Crash();
}

std::vector<net::Invalidation> ShardedAccelerator::Recover() {
  // Union the per-shard ever-seen lists first: a site that requested
  // documents on several shards must receive exactly one server-address
  // invalidation, and sorting keeps the emission order identical to the
  // unsharded tier.
  std::vector<std::string_view> sites;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    const std::vector<std::string_view> shard_sites = shard->SitesEverSeen();
    sites.insert(sites.end(), shard_sites.begin(), shard_sites.end());
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

void ShardedAccelerator::EnableJournal(bool enabled) {
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    shard->EnableJournal(enabled);
  }
}

bool ShardedAccelerator::journal_enabled() const {
  return shards_.front()->journal_enabled();
}

ShardedAccelerator::RecoveryOutcome ShardedAccelerator::RecoverFromJournal(
    Time now) {
  RecoveryOutcome outcome;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    const Accelerator::RebuildOutcome rebuilt = shard->RebuildFromJournal(now);
    if (rebuilt.journal_damaged) ++outcome.shards_damaged;
    outcome.records_applied += rebuilt.records_applied;
    outcome.records_rejected += rebuilt.records_rejected;
    outcome.entries_restored += rebuilt.entries_restored;
  }
  outcome.journal_damaged = outcome.shards_damaged > 0;

  if (outcome.journal_damaged) {
    // One damaged shard journal degrades the whole recovery to the blanket
    // broadcast: mixing targeted invalidations from intact shards with a
    // broadcast for the damaged one would invalidate the same sites twice.
    outcome.invalidations = Recover();
    return outcome;
  }

  // Phase 2 in global URL order: the concatenation of disjoint per-shard
  // URL sets, sorted, walks the same sequence the unsharded journal would.
  std::vector<std::string> urls;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    std::vector<std::string> shard_urls = shard->JournaledUrls();
    urls.insert(urls.end(), std::make_move_iterator(shard_urls.begin()),
                std::make_move_iterator(shard_urls.end()));
  }
  std::sort(urls.begin(), urls.end());
  for (const std::string& url : urls) {
    std::vector<net::Invalidation> changed =
        shards_[ring_.ShardOf(url)]->CheckDocument(url, now);
    for (net::Invalidation& inv : changed) {
      inv.recovery = true;
      outcome.invalidations.push_back(std::move(inv));
    }
  }
  return outcome;
}

std::size_t ShardedAccelerator::PruneExpired(Time now) {
  std::vector<InvalidationTable::ExpiredEntry> expired;
  std::size_t pruned = 0;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    pruned += shard->table().PruneExpiredInto(now, expired);
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
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    bytes += shard->table().StorageBytes();
  }
  return bytes;
}

std::size_t ShardedAccelerator::TotalEntries() const {
  std::size_t entries = 0;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    entries += shard->table().TotalEntries();
  }
  return entries;
}

std::size_t ShardedAccelerator::MaxListLength() const {
  // A (url, site) list lives wholly inside one shard, so the global longest
  // list is the max over shards — invariant across shard counts.
  std::size_t longest = 0;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    longest = std::max(longest, shard->table().MaxListLength());
  }
  return longest;
}

AcceleratorStats ShardedAccelerator::AggregateStats() const {
  AcceleratorStats total;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    const AcceleratorStats& stats = shard->stats();
    total.requests += stats.requests;
    total.notifies += stats.notifies;
    total.modifications_detected += stats.modifications_detected;
    total.invalidations_generated += stats.invalidations_generated;
    total.list_lengths_at_modification.insert(
        total.list_lengths_at_modification.end(),
        stats.list_lengths_at_modification.begin(),
        stats.list_lengths_at_modification.end());
  }
  return total;
}

std::vector<InvalidationTable::Snapshot> ShardedAccelerator::SnapshotEntries()
    const {
  std::vector<InvalidationTable::Snapshot> out;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    std::vector<InvalidationTable::Snapshot> entries =
        shard->table().SnapshotEntries();
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
  // Shards emit the per-URL events (lease grants, notifies, generated
  // invalidations) directly — those route to exactly one shard, so their
  // order is shard-count invariant. Cross-shard streams (lease expiry,
  // recovery broadcast) are emitted here after a global sort.
  trace_sink_ = sink;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    shard->set_trace_sink(sink);
  }
}

void ShardedAccelerator::ExportMetrics(obs::MetricsRegistry& registry,
                                       std::string_view prefix) const {
  if (shards_.size() == 1) {
    shards_.front()->ExportMetrics(registry, prefix);
    return;
  }
  const auto name = [&prefix](std::string_view leaf) {
    std::string full(prefix);
    full += leaf;
    return full;
  };
  const AcceleratorStats total = AggregateStats();
  registry.SetCounter(name("requests"), total.requests);
  registry.SetCounter(name("notifies"), total.notifies);
  registry.SetCounter(name("modifications_detected"),
                      total.modifications_detected);
  registry.SetCounter(name("invalidations_generated"),
                      total.invalidations_generated);
  obs::Histogram* lists = registry.FindOrCreateHistogram(
      name("site_list_length_at_modification"));
  for (const std::size_t length : total.list_lengths_at_modification) {
    lists->Record(static_cast<double>(length));
  }
  registry.SetCounter(name("table.entries"), TotalEntries());
  registry.SetCounter(name("table.max_list_length"), MaxListLength());
  registry.SetCounter(name("table.storage_bytes"), StorageBytes());
  // Expiry/renewal counters sum across shards and stay shard-count
  // invariant: each (url, site) entry lives on exactly one shard, and the
  // wheel never changes WHICH entries a prune at `now` retires.
  std::uint64_t leases_expired = 0;
  std::uint64_t lease_renewals = 0;
  for (const std::unique_ptr<Accelerator>& shard : shards_) {
    leases_expired += shard->table().leases_expired();
    lease_renewals += shard->table().lease_renewals();
  }
  registry.SetCounter(name("table.leases_expired"), leases_expired);
  registry.SetCounter(name("table.lease_renewals"), lease_renewals);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string shard_prefix(prefix);
    shard_prefix += "shard";
    shard_prefix += std::to_string(i);
    shard_prefix += '.';
    shards_[i]->ExportMetrics(registry, shard_prefix);
  }
}

}  // namespace webcc::core
