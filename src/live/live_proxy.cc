#include "live/live_proxy.h"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "http/cache_key.h"
#include "live/live_server.h"
#include "net/wire.h"
#include "util/log.h"

namespace webcc::live {
namespace {

// Snapshot of a cached copy's consistency state for the kernel.
core::consistency::EntryMeta MetaOf(const http::CacheEntry& entry) {
  core::consistency::EntryMeta meta;
  meta.last_modified = entry.last_modified;
  meta.fetched_at = entry.fetched_at;
  meta.ttl_expires = entry.ttl_expires;
  meta.lease_expires = entry.lease_expires;
  meta.questionable = entry.questionable;
  return meta;
}

core::consistency::ReplyMeta MetaOf(const net::Reply& reply) {
  core::consistency::ReplyMeta meta;
  meta.last_modified = reply.last_modified;
  meta.lease_until = reply.lease_until;
  return meta;
}

}  // namespace

LiveProxy::LiveProxy(Options options)
    : options_(std::move(options)),
      policy_(core::consistency::MakePolicy(options_.protocol, options_.ttl)),
      server_(options_.server_port) {}

LiveProxy::~LiveProxy() { Stop(); }

bool LiveProxy::Start() {
  {
    const util::MutexLock lock(mutex_);
    cache_.emplace(options_.cache_bytes, options_.eviction_policy,
                   options_.cache_tier);
    cache_->set_trace_sink(options_.trace_sink);  // eviction events
  }
  reactor_.emplace(options_.port,
                   [this](std::string_view line) { return HandleLine(line); });
  if (!reactor_->valid()) {
    reactor_.reset();
    return false;
  }
  port_ = reactor_->port();
  return true;
}

void LiveProxy::Stop() { reactor_.reset(); }

Time LiveProxy::Now() const {
  // Unix-epoch microseconds: server and proxy clocks must agree because
  // lease expiries and modification times cross the wire.
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::size_t LiveProxy::cached_entries() const {
  const util::MutexLock lock(mutex_);
  return cache_->entry_count();
}

void LiveProxy::SimulateRecovery() {
  const util::MutexLock lock(mutex_);
  cache_->MarkAllQuestionable();
}

LiveProxy::FetchResult LiveProxy::Fetch(const std::string& client_name,
                                        const std::string& url) {
  const std::string client_id = MakeClientId(client_name, port_);
  const std::string key = http::ComposeCacheKey(url, client_id);
  const Time now = Now();
  const core::consistency::Traits& traits = policy_->traits();

  net::Request request;
  request.url = url;
  request.client_id = client_id;
  request.type = net::MessageType::kGet;
  bool lease_renewal = false;

  {
    const util::MutexLock lock(mutex_);
    http::CacheEntry* entry = cache_->Lookup(key, now);
    if (entry != nullptr) {
      const core::consistency::HitDecision decision =
          policy_->OnHit(MetaOf(*entry), now);
      if (decision.action == core::consistency::HitAction::kServeLocal) {
        obs::Emit(options_.trace_sink,
                  {.type = obs::EventType::kRequestServed,
                   .at = now,
                   .url = url,
                   .site = client_id,
                   .detail = static_cast<std::int64_t>(obs::ServeKind::kLocalHit)});
        FetchResult result;
        result.ok = true;
        result.local_hit = true;
        result.version = entry->version;
        result.size_bytes = entry->size_bytes;
        return result;
      }
      lease_renewal = decision.lease_renewal;
      request.type = net::MessageType::kIfModifiedSince;
      request.if_modified_since = entry->last_modified;
    }

    // PCV: since we are contacting the server anyway, piggyback a batch of
    // this proxy's TTL-expired entries for bulk validation.
    if (traits.piggyback_validation) {
      for (http::CacheEntry* expired : cache_->TakeExpired(
               now, options_.piggyback.max_validations_per_request)) {
        if (expired->key == key) {
          // The request itself validates this entry; leave it indexed.
          cache_->SetTtlExpiry(*expired, expired->ttl_expires);
          continue;
        }
        request.pcv_queries.push_back(net::PcvQuery{
            expired->url, expired->owner, expired->last_modified});
      }
    }
  }

  obs::Emit(options_.trace_sink,
            request.type == net::MessageType::kGet
                ? obs::TraceEvent{.type = obs::EventType::kGetSent,
                                  .at = now,
                                  .url = url,
                                  .site = client_id}
                : obs::TraceEvent{.type = obs::EventType::kImsSent,
                                  .at = now,
                                  .url = url,
                                  .site = client_id,
                                  .detail = lease_renewal ? 1 : 0});

  const std::optional<std::string> reply_line =
      server_.Exchange(net::EncodeLine(request));
  if (!reply_line.has_value()) return FetchResult{};
  const std::optional<net::Message> message = net::DecodeLine(*reply_line);
  if (!message.has_value()) return FetchResult{};
  const auto* reply = std::get_if<net::Reply>(&*message);
  if (reply == nullptr) return FetchResult{};

  FetchResult result;
  result.ok = true;
  result.version = reply->version;

  obs::Emit(options_.trace_sink,
            {.type = obs::EventType::kRequestServed,
             .at = now,
             .url = url,
             .site = client_id,
             .detail = static_cast<std::int64_t>(
                 reply->type == net::MessageType::kReply200
                     ? obs::ServeKind::kTransfer
                     : obs::ServeKind::kValidated)});

  const util::MutexLock lock(mutex_);

  // Apply the reply's piggyback freshness information first, so a
  // just-fetched body is inserted after any purge of its URL (the replay's
  // ApplyPiggyback runs before DeliverReply for the same reason).
  if (!reply->pcv_invalid.empty() || !request.pcv_queries.empty()) {
    std::unordered_set<std::string> invalid_keys;
    for (const net::PcvStale& stale : reply->pcv_invalid) {
      const std::string stale_key =
          http::ComposeCacheKey(stale.url, stale.owner);
      if (cache_->Erase(stale_key)) pcv_invalidated_.fetch_add(1);
      invalid_keys.insert(stale_key);
    }
    // Entries the server did not flag are certified valid: re-arm their TTL.
    for (const net::PcvQuery& query : request.pcv_queries) {
      const std::string query_key =
          http::ComposeCacheKey(query.url, query.owner);
      if (invalid_keys.count(query_key) != 0) continue;
      http::CacheEntry* entry = cache_->Peek(query_key);
      if (entry == nullptr) continue;  // evicted while we were on the wire
      cache_->SetTtlExpiry(*entry, policy_->OnPcvValid(MetaOf(*entry), now));
    }
  }
  for (const std::string& modified : reply->psi_modified) {
    psi_purged_.fetch_add(cache_->EraseByUrl(modified));
  }

  if (reply->type == net::MessageType::kReply200) {
    const core::consistency::InsertDecision decision =
        policy_->OnMissReply(MetaOf(*reply), now);
    http::CacheEntry entry;
    entry.key = key;
    entry.url = url;
    entry.owner = client_id;
    entry.size_bytes = reply->body_bytes;
    entry.last_modified = reply->last_modified;
    entry.version = reply->version;
    entry.fetched_at = now;
    entry.ttl_expires = decision.ttl_expires;
    entry.lease_expires = decision.lease_expires;
    result.size_bytes = entry.size_bytes;
    cache_->Insert(std::move(entry), now);
  } else {
    result.validated = true;
    http::CacheEntry* entry = cache_->Peek(key);
    if (entry != nullptr) {
      const core::consistency::ValidateDecision decision =
          policy_->OnValidateReply(MetaOf(*reply), now);
      if (decision.clear_questionable) entry->questionable = false;
      if (decision.set_ttl) cache_->SetTtlExpiry(*entry, decision.ttl_expires);
      if (decision.set_lease) entry->lease_expires = decision.lease_expires;
      result.size_bytes = entry->size_bytes;
      result.version = entry->version;
    }
  }
  return result;
}

std::string LiveProxy::HandleLine(std::string_view line) {
  const std::optional<net::Message> message = net::DecodeLine(line);
  // A proxy running a protocol without invalidation callbacks predates the
  // INVALIDATE extension and ignores such messages, as the paper's
  // weak-consistency baselines do.
  if (!message.has_value() || !policy_->traits().invalidation_callbacks) {
    return {};
  }
  if (const auto* batch = std::get_if<net::BatchInvalidation>(&*message)) {
    // A batched frame is semantically the list of single invalidations it
    // carries: same per-URL purge, counter and delivery event as if each
    // URL had arrived on its own.
    const util::MutexLock lock(mutex_);
    for (const std::string& url : batch->urls) {
      cache_->Erase(http::ComposeCacheKey(url, batch->client_id));
      invalidations_received_.fetch_add(1);
      obs::Emit(options_.trace_sink,
                {.type = obs::EventType::kInvalidateDelivered,
                 .at = Now(),
                 .url = url,
                 .site = batch->client_id});
    }
    return {};
  }
  const auto* invalidation = std::get_if<net::Invalidation>(&*message);
  if (invalidation == nullptr) return {};

  const util::MutexLock lock(mutex_);
  if (invalidation->type == net::MessageType::kInvalidateUrl) {
    cache_->Erase(
        http::ComposeCacheKey(invalidation->url, invalidation->client_id));
    invalidations_received_.fetch_add(1);
    obs::Emit(options_.trace_sink,
              {.type = obs::EventType::kInvalidateDelivered,
               .at = Now(),
               .url = invalidation->url,
               .site = invalidation->client_id});
  } else {
    // Server-address invalidation: the recovering server cannot know what
    // changed while it was down, so every copy of its documents at this
    // site becomes questionable (the wire message carries no client; with
    // a single origin that is this proxy's whole cache).
    cache_->MarkAllQuestionable();
    server_notices_received_.fetch_add(1);
  }
  return {};
}

}  // namespace webcc::live
