// Real-TCP origin server + accelerator, the live counterpart of the
// replay's pseudo-server.
//
// Mirrors the paper's deployment: the origin answers GET/IMS, and — when
// the configured protocol's traits call for invalidation callbacks — the
// accelerator fronts it, registers every requesting site, and pushes
// INVALIDATE messages over TCP when a document is touched and checked in.
// Which machinery runs is the consistency kernel's decision
// (core/consistency): the same traits and OnWrite() calls that drive the
// replay engine drive this server, so simulated and deployed behavior match
// by construction. Requests arrive as lines on persistent connections,
// served by one LineServer reactor thread (live/socket.h); the wire format
// is net/wire.h (including the optional PCV/PSI piggyback sections).
// INVALIDATE pushes go out from the writer's thread (or, for a NOTIFY
// line, the reactor's) on one fresh connection per proxy per attempt.
//
// Invalidations must reach the requesting proxy's listener, so live client
// identifiers embed the proxy's callback port: "name@port" (see
// MakeClientId). This plays the role of the IP address the paper's
// accelerator records per site; PSI contact cursors key on the same port.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/consistency/policy.h"
#include "core/policy.h"
#include "core/protocol_steps.h"
#include "live/socket.h"
#include "obs/trace_sink.h"
#include "util/thread_annotations.h"
#include "util/time.h"

namespace webcc::live {

// "alice@45123": real-client name plus the proxy listener to call back.
std::string MakeClientId(std::string_view name, std::uint16_t proxy_port);
// Extracts the callback port; std::nullopt if the id has no port suffix.
std::optional<std::uint16_t> ParseClientPort(std::string_view client_id);

class LiveServer {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0 = pick an ephemeral port
    core::Protocol protocol = core::Protocol::kInvalidation;
    core::LeaseConfig lease;
    std::string server_name = "origin";
    // Accelerator shard count (consistent-hashed by URL). The observable
    // push stream is shard-invariant; shards only change which internal
    // table a URL lives in (the live server keeps no journal).
    std::uint32_t shards = 1;
    // Optional structured-event sink (not owned; must outlive the server).
    // Live timestamps are wall-clock microseconds from Now(), and the sink
    // must be internally synchronized (JsonlTraceSink is) because handler
    // and admin threads emit concurrently.
    obs::TraceSink* trace_sink = nullptr;
  };

  explicit LiveServer(Options options);
  ~LiveServer();

  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  // Binds and starts the reactor. False if the port could not be bound.
  bool Start();
  void Stop();

  std::uint16_t port() const { return port_; }

  // --- document administration (thread-safe) -------------------------------
  void AddDocument(std::string path, std::uint64_t size_bytes);
  // Simulates an edit plus check-in: bumps the version and, when the
  // protocol's OnWrite decision owes a fan-out, runs the accelerator's
  // detection and pushes invalidations to registered proxies. Returns the
  // number of INVALIDATE messages pushed.
  std::size_t TouchDocument(const std::string& path);

  // --- failure drill --------------------------------------------------------
  // Drops the in-memory invalidation table (server-site crash)...
  void CrashTables();
  // ...and the recovery path: pushes a server-address INVALIDATE to every
  // site ever seen. Returns how many were pushed.
  std::size_t Recover();

  // Monotonic protocol time (microseconds since Start).
  Time Now() const;

  std::uint64_t requests_served() const { return requests_served_.load(); }
  std::uint64_t invalidations_pushed() const {
    return invalidations_pushed_.load();
  }
  // Wire frames carrying those invalidations: one per invalidation.
  std::uint64_t invalidation_frames_pushed() const {
    return invalidations_pushed_.load();
  }
  // Frames given up on, by cause; push_retries() counts reconnect attempts.
  std::uint64_t pushes_timed_out() const { return pushes_timed_out_.load(); }
  std::uint64_t pushes_refused() const { return pushes_refused_.load(); }
  std::uint64_t push_retries() const { return push_retries_.load(); }

 private:
  // Answers one request line on the reactor thread: a reply, OK for a
  // NOTIFY (after its pushes), or an ERR line.
  std::string HandleLine(std::string_view line);
  std::size_t PushInvalidations(
      const std::vector<net::Invalidation>& invalidations);

  Options options_;
  std::unique_ptr<const core::consistency::ConsistencyPolicy> policy_;
  std::uint16_t port_ = 0;

  mutable util::Mutex mutex_;
  // The server state and the PSI cursors are confined behind mutex_: the
  // reactor thread, the admin surface (AddDocument/TouchDocument) and the
  // failure drills mutate them concurrently.
  core::ServerSite site_ WEBCC_GUARDED_BY(mutex_);
  // Each proxy's PSI contact cursor, keyed by its callback port.
  std::unordered_map<std::uint16_t, Time> psi_cursor_ WEBCC_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> invalidations_pushed_{0};
  std::atomic<std::uint64_t> pushes_timed_out_{0};
  std::atomic<std::uint64_t> pushes_refused_{0};
  std::atomic<std::uint64_t> push_retries_{0};

  // Last, so it stops before the state its handler touches is destroyed.
  std::optional<LineServer> reactor_;
};

}  // namespace webcc::live
