#include "core/invalidation_table.h"

#include <algorithm>
#include <utility>

#include "core/lease.h"
#include "util/check.h"

namespace webcc::core {

InvalidationTable::InvalidationTable(LeaseConfig lease) : lease_(lease) {
  // Size the wheel so one revolution covers twice the longest lease the
  // config can grant: every freshly granted expiry then lands inside the
  // current revolution and Schedule's horizon clamp only ever fires for
  // untrusted journal input. With leases off nothing the table grants is
  // expirable; a minute-granularity wheel still backs Restore, whose input
  // may carry timed leases regardless of config.
  Time span = 0;
  switch (lease_.mode) {
    case LeaseMode::kNone:
      break;
    case LeaseMode::kFixed:
      span = lease_.duration;
      break;
    case LeaseMode::kTwoTier:
      span = std::max(lease_.duration, lease_.short_duration);
      break;
  }
  Time granularity = kMinute;
  if (span > 0) {
    granularity =
        std::max<Time>(1, (2 * span + static_cast<Time>(kWheelSlots) - 1) /
                              static_cast<Time>(kWheelSlots));
  }
  wheel_.Configure(granularity, kWheelSlots);
}

Time InvalidationTable::Register(InternId url_id, InternId site_id,
                                 net::MessageType request_type, Time now) {
  const Time lease_until = GrantLease(lease_, request_type, now);
  if (!LeaseActive(lease_until, now)) {
    // Zero-length (two-tier GET) lease: the client promises to validate on
    // its next access, so the server need not remember it. An existing
    // longer lease from an earlier request is left untouched.
    return lease_until;
  }
  if (url_id >= lists_.size()) lists_.resize(url_id + 1);
  CompactSiteList& list = lists_[url_id];
  if (list.empty()) ++urls_tracked_;
  auto [slot, inserted] = list.Upsert(site_id, lease_until);
  if (inserted) {
    ++total_entries_;
    // Only a timed lease is expirable; kNoLease entries stay out of the
    // wheel (plain invalidation remembers sites forever).
    if (lease_until != net::kNoLease) {
      wheel_.Schedule(url_id, site_id, lease_until);
    }
  } else {
    // Renewal. Refresh, never shorten: a still-active lease keeps its later
    // expiry. The wheel is NOT touched — the entry's old slot is visited no
    // later than the old expiry, finds the lease alive, and reschedules at
    // the refreshed one (lazy renewal, no duplicate wheel entries).
    if (*slot != net::kNoLease &&
        (lease_until == net::kNoLease || lease_until > *slot)) {
      *slot = lease_until;
      ++lease_renewals_;
    }
  }
  return lease_until;
}

std::vector<InvalidationTable::TakenSite>
InvalidationTable::TakeSitesWithLeases(InternId url_id, Time now) {
  std::vector<TakenSite> sites;
  CompactSiteList* list = FindList(url_id);
  if (list == nullptr) return sites;
  // Lapsed entries are not "taken" — their lease already freed the server
  // from invalidating them — but they don't vanish silently either: they go
  // through the same expiry accounting as PruneExpired, so kLeaseExpiry
  // emission and leases_expired() stay reconciled with entry retirement.
  std::vector<ExpiredEntry> expired;
  ExpireListEntries(url_id, now, expired);
  if (!list->empty()) {
    sites.reserve(list->size());
    list->ForEach([&](InternId site, Time lease_until) {
      sites.push_back({std::string(clients_.NameOf(site)), lease_until});
    });
    total_entries_ -= list->size();
    ReleaseList(*list);
  }
  std::sort(sites.begin(), sites.end(),  // deterministic fan-out order
            [](const TakenSite& a, const TakenSite& b) {
              return a.site < b.site;
            });
  EmitLeaseExpiries(expired, now);
  return sites;
}

void InvalidationTable::DropList(std::string_view url) {
  const InternId url_id = urls_.Find(url);
  if (url_id == kNoInternId) return;
  CompactSiteList* list = FindList(url_id);
  if (list == nullptr) return;
  total_entries_ -= list->size();
  ReleaseList(*list);
}

bool InvalidationTable::Restore(std::string_view url, std::string_view client,
                                Time lease_until, Time now) {
  if (!LeaseActive(lease_until, now)) {
    // The lease lapsed while the server was down: the site already promised
    // to validate before reusing its copy, so the rebuilt table owes it
    // nothing. Resurrecting it would inflate entries/storage_bytes until
    // the next prune and seed the wheel with dead slots.
    return false;
  }
  const InternId url_id = urls_.Intern(url);
  if (url_id >= lists_.size()) lists_.resize(url_id + 1);
  CompactSiteList& list = lists_[url_id];
  if (list.empty()) ++urls_tracked_;
  const InternId site_id = clients_.Intern(client);
  auto [slot, inserted] = list.Upsert(site_id, lease_until);
  if (inserted) {
    ++total_entries_;
    if (lease_until != net::kNoLease) {
      wheel_.Schedule(url_id, site_id, lease_until);
    }
  } else if (*slot != net::kNoLease &&
             (lease_until == net::kNoLease || lease_until > *slot)) {
    *slot = lease_until;
  }
  return true;
}

std::size_t InvalidationTable::ListLength(std::string_view url,
                                          Time now) const {
  const InternId url_id = urls_.Find(url);
  if (url_id == kNoInternId) return 0;
  const CompactSiteList* list = FindList(url_id);
  if (list == nullptr) return 0;
  std::size_t live = 0;
  list->ForEach([&](InternId /*site*/, Time lease_until) {
    if (LeaseActive(lease_until, now)) ++live;
  });
  return live;
}

std::size_t InvalidationTable::PruneExpired(Time now) {
  // Collect first, then emit in (url, site) order: the early version traced
  // kLeaseExpiry events straight out of the container walk, so the trace
  // stream depended on table layout — exactly the nondeterminism
  // webcc_lint's unordered-iter-in-dump rule rejects. Erasure order never
  // mattered (the tables end up identical); emission order is output.
  std::vector<ExpiredEntry> expired;
  const std::size_t pruned = PruneExpiredInto(now, expired);
  EmitLeaseExpiries(expired, now);
  return pruned;
}

std::size_t InvalidationTable::PruneExpiredInto(
    Time now, std::vector<ExpiredEntry>& out) {
  std::size_t pruned = 0;
  wheel_.Advance(now, [&](InternId url_id, InternId site_id) -> Time {
    CompactSiteList* list = FindList(url_id);
    if (list == nullptr) return net::kNoLease;  // list taken; stale entry
    Time* slot = list->Find(site_id);
    if (slot == nullptr) return net::kNoLease;  // entry gone; stale
    const Time lease_until = *slot;
    if (LeaseActive(lease_until, now)) {
      // Alive — either renewed past `now` (reschedule at the refreshed
      // expiry) or upgraded to kNoLease (returns <= now, wheel forgets it:
      // unexpirable entries don't belong in the ring).
      return lease_until;
    }
    // Interner names are stable views; they outlive the erase below.
    out.push_back(
        {urls_.NameOf(url_id), clients_.NameOf(site_id), lease_until});
    list->Erase(site_id);
    if (list->empty()) ReleaseList(*list);
    --total_entries_;
    ++leases_expired_;
    ++pruned;
    return lease_until;  // <= now: the wheel drops it
  });
  return pruned;
}

void InvalidationTable::ExpireListEntries(InternId url_id, Time now,
                                          std::vector<ExpiredEntry>& out) {
  CompactSiteList* list = FindList(url_id);
  if (list == nullptr) return;
  std::vector<std::pair<InternId, Time>> dead;
  list->ForEach([&](InternId site, Time lease_until) {
    if (!LeaseActive(lease_until, now)) dead.push_back({site, lease_until});
  });
  for (const auto& [site, lease_until] : dead) {
    list->Erase(site);
    out.push_back({urls_.NameOf(url_id), clients_.NameOf(site), lease_until});
  }
  total_entries_ -= dead.size();
  leases_expired_ += dead.size();
  if (list->empty()) ReleaseList(*list);
}

void InvalidationTable::EmitLeaseExpiries(std::vector<ExpiredEntry>& expired,
                                          Time now) {
  if (trace_sink_ == nullptr || expired.empty()) return;
  std::sort(expired.begin(), expired.end(),
            [](const ExpiredEntry& a, const ExpiredEntry& b) {
              if (a.url != b.url) return a.url < b.url;
              return a.site < b.site;
            });
  for (const ExpiredEntry& e : expired) {
    obs::Emit(trace_sink_, {.type = obs::EventType::kLeaseExpiry,
                            .at = now,
                            .url = e.url,
                            .site = e.site,
                            .detail = e.lease_until});
  }
}

std::vector<InvalidationTable::Snapshot> InvalidationTable::SnapshotEntries()
    const {
  std::vector<Snapshot> out;
  out.reserve(total_entries_);
  for (InternId url_id = 0; url_id < lists_.size(); ++url_id) {
    lists_[url_id].ForEach([&](InternId site, Time lease_until) {
      out.push_back({std::string(urls_.NameOf(url_id)),
                     std::string(clients_.NameOf(site)), lease_until});
    });
  }
  std::sort(out.begin(), out.end(), [](const Snapshot& a, const Snapshot& b) {
    if (a.url != b.url) return a.url < b.url;
    return a.site < b.site;
  });
  return out;
}

std::size_t InvalidationTable::MaxListLength() const {
  std::size_t longest = 0;
  for (const CompactSiteList& list : lists_) {
    longest = std::max(longest, list.size());
  }
  return longest;
}

std::uint64_t InvalidationTable::StorageBytes() const {
  std::uint64_t bytes = 0;
  for (InternId url_id = 0; url_id < lists_.size(); ++url_id) {
    const CompactSiteList& list = lists_[url_id];
    if (list.empty()) continue;
    bytes += urls_.NameOf(url_id).size();
    list.ForEach([&](InternId site, Time /*lease_until*/) {
      bytes += clients_.NameOf(site).size() + kPerEntryOverheadBytes;
    });
  }
  return bytes;
}

std::uint64_t InvalidationTable::MemoryFootprintBytes() const {
  std::uint64_t bytes = lists_.capacity() * sizeof(CompactSiteList) +
                        wheel_.MemoryFootprintBytes();
  for (const CompactSiteList& list : lists_) {
    bytes += list.MemoryFootprintBytes();
  }
  return bytes;
}

void InvalidationTable::ExportMetrics(obs::MetricsRegistry& registry,
                                      std::string_view prefix) const {
  const auto name = [&prefix](std::string_view leaf) {
    std::string full(prefix);
    full += leaf;
    return full;
  };
  registry.SetCounter(name("entries"), total_entries_);
  registry.SetCounter(name("max_list_length"), MaxListLength());
  registry.SetCounter(name("storage_bytes"), StorageBytes());
  registry.SetCounter(name("urls_tracked"), urls_tracked_);
  registry.SetCounter(name("leases_expired"), leases_expired_);
  registry.SetCounter(name("lease_renewals"), lease_renewals_);
}

void InvalidationTable::Clear() {
  // The interners survive a crash on purpose: ids stay valid for the
  // recovery path, and the tables are bounded by the trace's vocabulary.
  // The expiry/renewal counters survive too — they are measurement record,
  // not server state (a crash does not un-expire a lease).
  lists_.clear();
  lists_.shrink_to_fit();
  wheel_.Clear();
  total_entries_ = 0;
  urls_tracked_ = 0;
}

}  // namespace webcc::core
