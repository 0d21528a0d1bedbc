#include "core/accelerator.h"

#include <algorithm>
#include <utility>

#include "core/lease.h"

namespace webcc::core {

std::optional<net::Reply> Accelerator::HandleRequest(
    const net::Request& request, Time now) {
  std::optional<net::Reply> reply = origin_.Handle(request, now);
  if (!reply.has_value()) return reply;
  ++stats_.requests;

  // Resolve both names once; everything below keys on the ids. Interning
  // the requester before the lease check is what makes the site interner
  // the ever-seen list: a two-tier GET earns no list entry, but its site
  // must still hear the recovery broadcast.
  const InternId url_id = table_.InternUrl(request.url);
  const InternId site_id = table_.InternSite(request.client_id);

  // First sighting of a document pins the version baseline so a later
  // notify can tell "changed since last invalidation" from "never seen".
  // The reply carries the store's current version.
  VersionPin& pin = PinOf(url_id);
  const bool first_sighting = !pin.seen;
  if (first_sighting) pin = {reply->version, true};
  if (journal_enabled_) {
    // Append-before-act: the journal records the registration before the
    // table mutates, so a torn tail can only describe an entry that was
    // never created. GrantLease is pure, so computing it here and again
    // inside Register cannot disagree.
    if (first_sighting) journal_.AppendVersion(request.url, reply->version);
    const Time lease = GrantLease(table_.lease_config(), request.type, now);
    if (LeaseActive(lease, now)) {
      journal_.AppendRegister(request.url, request.client_id, lease);
    }
  }

  // Pessimistic registration: any requester might cache the document.
  reply->lease_until = table_.Register(url_id, site_id, request.type, now);
  if (reply->lease_until != net::kNoLease) {
    obs::Emit(trace_sink_, {.type = obs::EventType::kLeaseGrant,
                            .at = now,
                            .url = request.url,
                            .site = request.client_id,
                            .detail = reply->lease_until});
  }
  return reply;
}

std::vector<net::Invalidation> Accelerator::HandleNotify(
    const net::Notify& notify, Time now) {
  ++stats_.notifies;
  obs::Emit(trace_sink_,
            {.type = obs::EventType::kNotify, .at = now, .url = notify.url});
  return DetectAndInvalidate(notify.url, now);
}

std::vector<net::Invalidation> Accelerator::CheckDocument(std::string_view url,
                                                          Time now) {
  return DetectAndInvalidate(url, now);
}

std::vector<net::Invalidation> Accelerator::DetectAndInvalidate(
    std::string_view url, Time now) {
  std::vector<net::Invalidation> out;
  const http::Document* doc = store_->Find(url);
  if (doc == nullptr) return out;

  const InternId url_id = table_.InternUrl(url);
  VersionPin& pin = PinOf(url_id);
  const bool first_sighting = !pin.seen;
  if (first_sighting || doc->version == pin.version) {
    if (first_sighting) {
      pin = {doc->version, true};
      if (journal_enabled_) journal_.AppendVersion(url, doc->version);
    }
    return out;  // unchanged (or nothing could have cached it yet)
  }
  pin.version = doc->version;
  ++stats_.modifications_detected;
  if (journal_enabled_) {
    // Journal the new baseline and the list wipe before taking the list.
    journal_.AppendVersion(url, doc->version);
    journal_.AppendInvalidate(url);
  }

  std::vector<InvalidationTable::TakenSite> sites =
      table_.TakeSitesWithLeases(url_id, now);
  stats_.list_lengths_at_modification.push_back(sites.size());
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
  stats_.invalidations_generated += out.size();
  return out;
}

void Accelerator::Crash() {
  table_.Clear();
  last_seen_version_.clear();
  // stats_ intentionally survives: it is the experiment's measurement
  // record, not server state.
}

std::vector<std::string_view> Accelerator::SitesEverSeen() const {
  const Interner& sites = table_.sites();
  std::vector<std::string_view> names;
  names.reserve(sites.size());
  for (InternId id = 0; id < sites.size(); ++id) {
    names.push_back(sites.NameOf(id));
  }
  std::sort(names.begin(), names.end());
  return names;
}

Accelerator::RebuildOutcome Accelerator::RebuildFromJournal(Time now) {
  RebuildOutcome outcome;
  const SiteJournal::ReplayResult replayed = journal_.Replay();
  outcome.journal_damaged = replayed.damaged;
  outcome.records_applied = replayed.records_applied;
  outcome.records_rejected = replayed.records_rejected;

  // Replay the valid prefix. When the journal is damaged this restores a
  // conservative superset: dropping trailing 'I' records can only leave
  // *extra* site-list entries (invalidate-more), never missing ones.
  for (const SiteJournal::Entry& entry : replayed.entries) {
    switch (entry.kind) {
      case 'R':
        // Restore drops entries whose lease lapsed while the server was
        // down — resurrecting them would inflate the rebuilt table's
        // entries/storage_bytes until the next prune.
        table_.Restore(entry.url, entry.site, entry.lease_until, now);
        break;
      case 'I':
        // History replay, not protocol execution: discard the list
        // silently. The Take path would emit kLeaseExpiry for lapsed
        // entries, and rebuild must emit no events.
        table_.DropList(entry.url);
        break;
      case 'V':
        PinOf(table_.InternUrl(entry.url)) = {entry.version, true};
        break;
      default:
        break;  // Replay never yields other kinds
    }
  }

  // Compact: the history is now embodied in the table, so rewrite the
  // journal as a snapshot of the restored state (version pins first, then
  // live registrations, both in sorted order for determinism).
  journal_.Clear();
  for (const std::string& url : JournaledUrls()) {
    journal_.AppendVersion(url, PinOf(table_.FindUrl(url)).version);
  }
  std::vector<InvalidationTable::Snapshot> entries = table_.SnapshotEntries();
  outcome.entries_restored = entries.size();
  for (const InvalidationTable::Snapshot& entry : entries) {
    journal_.AppendRegister(entry.url, entry.site, entry.lease_until);
  }
  return outcome;
}

std::vector<std::string> Accelerator::JournaledUrls() const {
  std::vector<std::string> urls;
  for (InternId id = 0; id < last_seen_version_.size(); ++id) {
    if (last_seen_version_[id].seen) urls.push_back(table_.UrlName(id));
  }
  std::sort(urls.begin(), urls.end());
  return urls;
}

void Accelerator::ExportMetrics(obs::MetricsRegistry& registry,
                                std::string_view prefix) const {
  const auto name = [&prefix](std::string_view leaf) {
    std::string full(prefix);
    full += leaf;
    return full;
  };
  registry.SetCounter(name("requests"), stats_.requests);
  registry.SetCounter(name("notifies"), stats_.notifies);
  registry.SetCounter(name("modifications_detected"),
                      stats_.modifications_detected);
  registry.SetCounter(name("invalidations_generated"),
                      stats_.invalidations_generated);
  obs::Histogram* lists = registry.FindOrCreateHistogram(
      name("site_list_length_at_modification"));
  for (const std::size_t length : stats_.list_lengths_at_modification) {
    lists->Record(static_cast<double>(length));
  }
  table_.ExportMetrics(registry, name("table."));
}

}  // namespace webcc::core
