#include "live/live_proxy.h"

#include <chrono>
#include <span>
#include <utility>

#include "core/protocol_steps.h"
#include "http/cache_key.h"
#include "live/live_server.h"
#include "net/wire.h"
#include "util/log.h"

namespace webcc::live {

LiveProxy::LiveProxy(Options options)
    : options_(std::move(options)),
      policy_(core::consistency::MakePolicy(options_.protocol, options_.ttl)),
      server_(options_.server_port) {}

LiveProxy::~LiveProxy() { Stop(); }

bool LiveProxy::Start() {
  {
    const util::MutexLock lock(mutex_);
    cache_.emplace(options_.cache_bytes, options_.eviction_policy);
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
  const Time now = Now();

  core::FetchStart start;
  {
    const util::MutexLock lock(mutex_);
    start = core::StartFetch(*cache_, *policy_, url, client_id, now);
    if (start.hit != nullptr) {
      obs::Emit(options_.trace_sink,
                {.type = obs::EventType::kRequestServed,
                 .at = now,
                 .url = url,
                 .site = client_id,
                 .detail =
                     static_cast<std::int64_t>(obs::ServeKind::kLocalHit)});
      FetchResult result;
      result.ok = true;
      result.local_hit = true;
      result.version = start.hit->version;
      result.size_bytes = start.hit->size_bytes;
      return result;
    }
  }

  obs::Emit(options_.trace_sink,
            start.request.type == net::MessageType::kGet
                ? obs::TraceEvent{.type = obs::EventType::kGetSent,
                                  .at = now,
                                  .url = url,
                                  .site = client_id}
                : obs::TraceEvent{.type = obs::EventType::kImsSent,
                                  .at = now,
                                  .url = url,
                                  .site = client_id,
                                  .detail = start.lease_renewal ? 1 : 0});

  const std::optional<std::string> reply_line =
      server_.Exchange(net::EncodeLine(start.request));
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
  const core::PiggybackOutcome outcome = core::ApplyPiggyback(
      *cache_, *policy_, start.request.pcv_queries, *reply, now);
  pcv_invalidated_.fetch_add(outcome.pcv_invalidated);
  psi_purged_.fetch_add(outcome.psi_erased);

  if (reply->type == net::MessageType::kReply200) {
    core::CacheTransfer(*cache_, *policy_, *reply, client_id, now);
    result.size_bytes = reply->body_bytes;
  } else {
    result.validated = true;
    if (const http::CacheEntry* entry =
            core::Revalidate(*cache_, *policy_, *reply, client_id, now)) {
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
  const auto* batch = std::get_if<net::BatchInvalidation>(&*message);
  const auto* invalidation = std::get_if<net::Invalidation>(&*message);
  if (batch == nullptr && invalidation == nullptr) return {};

  const util::MutexLock lock(mutex_);
  if (invalidation != nullptr &&
      invalidation->type != net::MessageType::kInvalidateUrl) {
    // Server-address invalidation: the recovering server cannot know what
    // changed while it was down, so every copy of its documents at this
    // site becomes questionable (the wire message carries no client; with
    // a single origin that is this proxy's whole cache).
    cache_->MarkAllQuestionable();
    server_notices_received_.fetch_add(1);
    return {};
  }
  // A batched frame is semantically the list of single invalidations it
  // carries: same per-URL purge, counter and delivery event as if each URL
  // had arrived on its own.
  const std::string& client_id =
      batch != nullptr ? batch->client_id : invalidation->client_id;
  const std::span<const std::string> urls =
      batch != nullptr ? std::span<const std::string>(batch->urls)
                       : std::span<const std::string>(&invalidation->url, 1);
  for (const std::string& url : urls) {
    cache_->Erase(http::ComposeCacheKey(url, client_id));
    invalidations_received_.fetch_add(1);
    obs::Emit(options_.trace_sink,
              {.type = obs::EventType::kInvalidateDelivered,
               .at = Now(),
               .url = url,
               .site = client_id});
  }
  return {};
}

}  // namespace webcc::live
