#include "live/live_server.h"

#include <charconv>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "util/log.h"

namespace webcc::live {

std::string MakeClientId(std::string_view name, std::uint16_t proxy_port) {
  return std::string(name) + "@" + std::to_string(proxy_port);
}

std::optional<std::uint16_t> ParseClientPort(std::string_view client_id) {
  const std::size_t at = client_id.rfind('@');
  if (at == std::string_view::npos) return std::nullopt;
  const std::string_view digits = client_id.substr(at + 1);
  std::uint16_t port = 0;
  const auto result =
      std::from_chars(digits.data(), digits.data() + digits.size(), port);
  if (result.ec != std::errc{} ||
      result.ptr != digits.data() + digits.size()) {
    return std::nullopt;
  }
  return port;
}

LiveServer::LiveServer(Options options)
    : options_(std::move(options)),
      policy_(core::consistency::MakePolicy(options_.protocol,
                                            core::AdaptiveTtlConfig{})),
      site_(policy_->traits(), options_.lease, options_.shards,
            options_.server_name, options_.piggyback) {
  // The accelerator emits lease_grant / notify / invalidate_generated /
  // invalidate_server events itself once it has the sink.
  site_.accelerator().set_trace_sink(options_.trace_sink);
}

LiveServer::~LiveServer() { Stop(); }

bool LiveServer::Start() {
  reactor_.emplace(options_.port,
                   [this](std::string_view line) { return HandleLine(line); });
  if (!reactor_->valid()) {
    reactor_.reset();
    return false;
  }
  port_ = reactor_->port();
  return true;
}

void LiveServer::Stop() { reactor_.reset(); }

Time LiveServer::Now() const {
  // Unix-epoch microseconds: server and proxy clocks must agree because
  // lease expiries and modification times cross the wire.
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void LiveServer::AddDocument(std::string path, std::uint64_t size_bytes) {
  const util::MutexLock lock(mutex_);
  site_.docs().Add(std::move(path), size_bytes, Now());
}

std::size_t LiveServer::TouchDocument(const std::string& path) {
  const bool fan_out = policy_->OnWrite().fan_out_invalidations;
  std::vector<net::Invalidation> invalidations;
  {
    const util::MutexLock lock(mutex_);
    const Time now = Now();
    if (!site_.Touch(path, now)) return 0;
    obs::Emit(options_.trace_sink,
              {.type = obs::EventType::kModification, .at = now, .url = path});
    if (fan_out) {
      // Retire lapsed leases before taking the list: O(expired) amortized
      // via the per-shard timer wheels, so the write path can afford it on
      // every check-in and the table never accumulates dead entries
      // between writes.
      site_.accelerator().PruneExpired(now);
      invalidations = site_.accelerator().HandleNotify(net::Notify{path}, now);
    }
  }
  return PushInvalidations(invalidations);
}

void LiveServer::CrashTables() {
  const util::MutexLock lock(mutex_);
  site_.accelerator().Crash();
}

std::size_t LiveServer::Recover() {
  std::vector<net::Invalidation> notices;
  {
    const util::MutexLock lock(mutex_);
    notices = site_.accelerator().Recover();
  }
  return PushInvalidations(notices);
}

std::size_t LiveServer::PushInvalidations(
    const std::vector<net::Invalidation>& invalidations) {
  // One wire frame per invalidation: a URL invalidation travels as a
  // one-URL INVB line, a server-address recovery notice as its INVSRV line.
  // One connection per proxy per attempt: frames group by callback port in
  // first-appearance order and go out back to back, as consecutive lines
  // for the proxy's reactor.
  struct Frame {
    const net::Invalidation* invalidation;
    std::string line;
  };
  struct ProxyFrames {
    std::uint16_t port = 0;
    std::vector<Frame> frames;
  };
  std::vector<ProxyFrames> proxies;
  std::unordered_map<std::uint16_t, std::size_t> proxy_of_port;
  for (const net::Invalidation& invalidation : invalidations) {
    const auto port = ParseClientPort(invalidation.client_id);
    if (!port.has_value()) {
      WEBCC_LOG_WARN("live: client id '%s' has no callback port",
                     invalidation.client_id.c_str());
      continue;
    }
    const auto [it, inserted] =
        proxy_of_port.try_emplace(*port, proxies.size());
    if (inserted) proxies.push_back(ProxyFrames{*port, {}});
    proxies[it->second].frames.push_back(Frame{
        &invalidation,
        invalidation.type == net::MessageType::kInvalidateUrl
            ? net::EncodeLine(net::Message(net::BatchInvalidation{
                  invalidation.client_id, {invalidation.url}}))
            : net::EncodeLine(invalidation)});
  }

  std::size_t pushed = 0;
  for (const ProxyFrames& proxy : proxies) {
    std::size_t written = 0;  // frames delivered so far, in order
    IoError error = IoError::kOther;
    for (int attempt = 0; attempt <= options_.push_retries; ++attempt) {
      if (attempt > 0) {
        // A stalled (but alive) proxy gets the bounded retry the replay
        // models with SendReliable's backoff; a refused connection means
        // the proxy is down and is not retried — its recovery path
        // (mark-all-questionable) covers consistency, exactly the paper's
        // failure handling.
        push_retries_.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            options_.push_retry_backoff_ms * attempt));
      }
      TcpStream stream = Connect(proxy.port);
      if (stream.valid()) {
        if (options_.push_timeout_ms > 0) {
          stream.SetWriteTimeout(options_.push_timeout_ms);
        }
        for (; written < proxy.frames.size(); ++written) {
          if (!stream.WriteAll(proxy.frames[written].line)) break;
          // Delivery is traced at the proxy when it applies the message
          // (the replay emits kInvalidateDelivered at the cache, not the
          // sender).
          ++pushed;
          invalidations_pushed_.fetch_add(1);
        }
      }
      error = stream.last_error();
      if (error != IoError::kTimeout) break;
    }
    for (std::size_t i = written; i < proxy.frames.size(); ++i) {
      const net::Invalidation& invalidation = *proxy.frames[i].invalidation;
      if (error == IoError::kTimeout) {
        pushes_timed_out_.fetch_add(1);
      } else {
        pushes_refused_.fetch_add(1);
      }
      obs::Emit(options_.trace_sink,
                {.type = error == IoError::kTimeout
                             ? obs::EventType::kInvalidateGaveUp
                             : obs::EventType::kInvalidateRefused,
                 .at = Now(),
                 .url = invalidation.url,
                 .site = invalidation.client_id});
    }
  }
  return pushed;
}

std::string LiveServer::HandleLine(std::string_view line) {
  const std::optional<net::Message> message = net::DecodeLine(line);
  if (!message.has_value()) return "ERR malformed\n";

  if (const auto* request = std::get_if<net::Request>(&*message)) {
    std::optional<net::Reply> reply;
    {
      const util::MutexLock lock(mutex_);
      Time* psi_cursor = nullptr;
      if (policy_->traits().piggyback_invalidation) {
        psi_cursor =
            &psi_cursor_[ParseClientPort(request->client_id).value_or(0)];
      }
      reply = site_.Serve(*request, Now(), psi_cursor);
    }
    if (!reply.has_value()) return "ERR notfound\n";
    requests_served_.fetch_add(1);
    obs::Emit(options_.trace_sink,
              {.type = reply->type == net::MessageType::kReply200
                           ? obs::EventType::kReply200
                           : obs::EventType::kReply304,
               .at = Now(),
               .url = reply->url,
               .site = request->client_id});
    return net::EncodeLine(*reply);
  }

  if (const auto* notify = std::get_if<net::Notify>(&*message)) {
    // Out-of-band check-in (the replay drives TouchDocument directly; a
    // remote modifier can also announce an already-applied edit). Weak
    // protocols owe no fan-out — the check-in is acknowledged and dropped.
    std::vector<net::Invalidation> invalidations;
    if (policy_->OnWrite().fan_out_invalidations) {
      const util::MutexLock lock(mutex_);
      invalidations = site_.accelerator().HandleNotify(*notify, Now());
    }
    return "OK " + std::to_string(PushInvalidations(invalidations)) + "\n";
  }

  return "ERR unsupported\n";
}

}  // namespace webcc::live
