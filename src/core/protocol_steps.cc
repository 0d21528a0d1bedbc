#include "core/protocol_steps.h"

#include <algorithm>
#include <utility>

#include "http/cache_key.h"
#include "http/origin.h"
#include "util/check.h"

namespace webcc::core {
namespace {

consistency::EntryMeta MetaOf(const http::CacheEntry& entry) {
  return {.last_modified = entry.last_modified,
          .fetched_at = entry.fetched_at,
          .ttl_expires = entry.ttl_expires,
          .lease_expires = entry.lease_expires,
          .questionable = entry.questionable};
}

consistency::ReplyMeta MetaOf(const net::Reply& reply) {
  return {.last_modified = reply.last_modified,
          .lease_until = reply.lease_until};
}

}  // namespace

FetchStart StartFetch(http::ProxyCache& cache,
                      const consistency::ConsistencyPolicy& policy,
                      const std::string& url, const std::string& owner,
                      Time now) {
  FetchStart start;
  const std::string key = http::ComposeCacheKey(url, owner);
  http::CacheEntry* entry = cache.Lookup(key);
  if (entry != nullptr) {
    const consistency::HitDecision decision =
        policy.OnHit(MetaOf(*entry), now);
    if (decision.action == consistency::HitAction::kServeLocal) {
      start.hit = entry;
      return start;
    }
    start.lease_renewal = decision.lease_renewal;
    start.request.type = net::MessageType::kIfModifiedSince;
    start.request.if_modified_since = entry->last_modified;
  }
  start.request.url = url;
  start.request.client_id = owner;

  // PCV: since the server is contacted anyway, piggyback a batch of this
  // proxy's TTL-expired entries for bulk validation.
  if (policy.traits().piggyback_validation) {
    for (http::CacheEntry* expired : cache.TakeExpired(now, kMaxPcvBatch)) {
      if (expired->key == key) {
        // The request itself validates this entry; leave it indexed.
        cache.SetTtlExpiry(*expired, expired->ttl_expires);
        continue;
      }
      start.request.pcv_queries.push_back(
          net::PcvQuery{expired->url, expired->owner, expired->last_modified});
    }
  }
  return start;
}

PiggybackOutcome ApplyPiggyback(http::ProxyCache& cache,
                                const consistency::ConsistencyPolicy& policy,
                                const std::vector<net::PcvQuery>& batch,
                                const net::Reply& reply, Time now) {
  PiggybackOutcome outcome;
  if (batch.empty() && reply.pcv_invalid.empty() &&
      reply.psi_modified.empty()) {
    return outcome;
  }
  for (const net::PcvStale& stale : reply.pcv_invalid) {
    if (cache.Erase(http::ComposeCacheKey(stale.url, stale.owner))) {
      ++outcome.pcv_invalidated;
    }
  }
  // The rest of the batch (a copy still cached) is certified fresh.
  for (const net::PcvQuery& query : batch) {
    http::CacheEntry* entry =
        cache.Peek(http::ComposeCacheKey(query.url, query.owner));
    if (entry != nullptr) {
      cache.SetTtlExpiry(*entry, policy.OnPcvValid(MetaOf(*entry), now));
    }
  }
  for (const std::string& url : reply.psi_modified) {
    outcome.psi_erased += cache.EraseByUrl(url);
  }
  return outcome;
}

void CacheTransfer(http::ProxyCache& cache,
                   const consistency::ConsistencyPolicy& policy,
                   const net::Reply& reply, const std::string& owner,
                   Time now) {
  const consistency::InsertDecision decision =
      policy.OnMissReply(MetaOf(reply), now);
  http::CacheEntry entry;
  entry.key = http::ComposeCacheKey(reply.url, owner);
  entry.url = reply.url;
  entry.owner = owner;
  entry.size_bytes = reply.body_bytes;
  entry.last_modified = reply.last_modified;
  entry.version = reply.version;
  entry.fetched_at = now;
  entry.ttl_expires = decision.ttl_expires;
  entry.lease_expires = decision.lease_expires;
  cache.Insert(std::move(entry), now);
}

http::CacheEntry* Revalidate(http::ProxyCache& cache,
                             const consistency::ConsistencyPolicy& policy,
                             const net::Reply& reply, const std::string& owner,
                             Time now) {
  http::CacheEntry* entry =
      cache.Peek(http::ComposeCacheKey(reply.url, owner));
  if (entry == nullptr) return nullptr;
  const consistency::ValidateDecision decision =
      policy.OnValidateReply(MetaOf(reply), now);
  if (decision.clear_questionable) entry->questionable = false;
  if (decision.set_ttl) cache.SetTtlExpiry(*entry, decision.ttl_expires);
  if (decision.set_lease) entry->lease_expires = decision.lease_expires;
  return entry;
}

ServerSite::ServerSite(const consistency::Traits& traits, LeaseConfig lease,
                       std::uint32_t shards, std::string server_name)
    : traits_(traits),
      accel_(docs_, lease, shards > 0 ? shards : 1, std::move(server_name)) {}

std::optional<net::Reply> ServerSite::Serve(const net::Request& request,
                                            Time now, Time* psi_cursor) {
  std::optional<net::Reply> reply = traits_.invalidation_callbacks
                                        ? accel_.HandleRequest(request, now)
                                        : http::OriginReply(docs_, request);
  if (!reply.has_value()) return reply;
  if (traits_.piggyback_validation && !request.pcv_queries.empty()) {
    reply->pcv_invalid = ValidatePiggyback(docs_, request.pcv_queries);
  }
  if (traits_.piggyback_invalidation) {
    WEBCC_CHECK_MSG(psi_cursor != nullptr, "PSI needs the proxy's cursor");
    ModificationLog::Window window =
        mod_log_.CollectSince(*psi_cursor, now, kMaxPsiNotices);
    *psi_cursor = std::max(*psi_cursor, window.advanced_to);
    reply->psi_modified = std::move(window.urls);
  }
  return reply;
}

bool ServerSite::Touch(const std::string& url, Time at) {
  if (!docs_.Touch(url, at)) return false;
  mod_log_.Record(at, url);
  return true;
}

}  // namespace webcc::core
