// Real-TCP caching proxy, the live counterpart of the replay's
// pseudo-client proxies (Harvest "cached").
//
// Serves Fetch() calls on behalf of named real clients (entries are
// namespaced by http::ComposeCacheKey(url, client), as in the paper's
// replay), forwards misses and validations to the live server over a pool
// of persistent connections, and applies the server's INVALIDATE pushes on
// one LineServer reactor thread (live/socket.h). Every consistency decision —
// serve-local vs validate, TTL/lease state on insert and on a 304 — comes
// from the same core/consistency kernel the replay engine dispatches
// through, and core/protocol_steps carries each one out for both stacks, so
// all five protocols (adaptive TTL, poll-every-time, invalidation, PCV, PSI)
// and the lease modes behave identically in simulation and deployment
// (tests/test_differential.cc asserts this).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/consistency/policy.h"
#include "core/policy.h"
#include "http/proxy_cache.h"
#include "live/socket.h"
#include "obs/trace_sink.h"
#include "util/thread_annotations.h"
#include "util/time.h"

namespace webcc::live {

class LiveProxy {
 public:
  struct Options {
    std::uint16_t port = 0;       // invalidation listener; 0 = ephemeral
    std::uint16_t server_port = 0;
    core::Protocol protocol = core::Protocol::kInvalidation;
    core::AdaptiveTtlConfig ttl;
    std::uint64_t cache_bytes = 64ull * 1024 * 1024;
    http::eviction::EvictionPolicyKind eviction_policy =
        http::eviction::EvictionPolicyKind::kExpiredFirstLru;
    // Optional structured-event sink (not owned; must outlive the proxy).
    // Must be internally synchronized: Fetch() callers and the reactor
    // emit concurrently.
    obs::TraceSink* trace_sink = nullptr;
  };

  explicit LiveProxy(Options options);
  ~LiveProxy();

  LiveProxy(const LiveProxy&) = delete;
  LiveProxy& operator=(const LiveProxy&) = delete;

  bool Start();
  void Stop();

  std::uint16_t port() const { return port_; }

  struct FetchResult {
    bool ok = false;
    // Served from cache without contacting the server.
    bool local_hit = false;
    // Contacted the server and got a 304 (copy certified fresh).
    bool validated = false;
    std::uint64_t version = 0;
    std::uint64_t size_bytes = 0;
  };

  // Fetches `url` on behalf of real client `client_name`. Thread-safe.
  FetchResult Fetch(const std::string& client_name, const std::string& url);

  // Simulated proxy restart: every cached entry becomes questionable.
  void SimulateRecovery();

  std::uint64_t invalidations_received() const {
    return invalidations_received_.load();
  }
  std::uint64_t server_notices_received() const {
    return server_notices_received_.load();
  }
  // PCV: piggybacked entries the server found invalid (and we dropped).
  std::uint64_t pcv_invalidated() const { return pcv_invalidated_.load(); }
  // PSI: cache entries purged by piggybacked server notices.
  std::uint64_t psi_purged() const { return psi_purged_.load(); }
  std::size_t cached_entries() const;

 private:
  // Applies one pushed line on the reactor thread; pushes get no reply.
  std::string HandleLine(std::string_view line);
  Time Now() const;

  Options options_;
  std::unique_ptr<const core::consistency::ConsistencyPolicy> policy_;
  std::uint16_t port_ = 0;

  mutable util::Mutex mutex_;
  std::optional<http::ProxyCache> cache_ WEBCC_GUARDED_BY(mutex_);

  ConnectionPool server_;  // misses and validations
  std::atomic<std::uint64_t> invalidations_received_{0};
  std::atomic<std::uint64_t> server_notices_received_{0};
  std::atomic<std::uint64_t> pcv_invalidated_{0};
  std::atomic<std::uint64_t> psi_purged_{0};

  // Last, so it stops before the state its handler touches is destroyed.
  std::optional<LineServer> reactor_;
};

}  // namespace webcc::live
