// Internal definition of the replay engine, shared by its translation
// units (engine.cc: setup/coordinator/client loop, engine_invalidation.cc:
// modifier + invalidation fan-out, engine_hierarchy.cc: parent proxy).
// Not part of the public replay interface — include replay/engine.h.
//
// All protocol policy decisions (serve-local vs validate, TTL/lease state
// for new and revalidated entries, write fan-out) are delegated to the
// core::consistency kernel, and the steps that carry them out to
// core/protocol_steps, which the live stack runs too; this class adds the
// simulated clock, network, costs, counters and trace events.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/consistency/policy.h"
#include "core/delivery.h"
#include "core/outbox.h"
#include "core/protocol_steps.h"
#include "fault/clock.h"
#include "http/proxy_cache.h"
#include "net/message.h"
#include "obs/trace_sink.h"
#include "replay/config.h"
#include "replay/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/station.h"
#include "util/check.h"
#include "util/time.h"

namespace webcc::replay::detail {

// The testbed's costs, fixed like the paper's five SPARC-20s. The server's
// are calibrated so the replay lands in the paper's utilization band
// (roughly 26-42% server CPU and a few disk ops per second); like the
// paper's iostat figures, absolute values only matter for comparison across
// protocols.
//
// CPU to parse and serve a request that returns a body (200), and a
// validation that returns 304 (no body work).
inline constexpr Time kRequestCpu200 = 150 * kMillisecond;
inline constexpr Time kRequestCpu304 = 75 * kMillisecond;
// CPU to process a check-in notification from the modifier.
inline constexpr Time kNotifyCpu = 20 * kMillisecond;
// CPU to build and push one INVALIDATE message onto a TCP connection. The
// paper's accelerator pays this serially for every site in the list.
inline constexpr Time kInvalidationSendCpu = 25 * kMillisecond;
// Disk service time per operation: the access-log write of every request
// and the file read behind each 200.
inline constexpr Time kDiskOp = 8 * kMillisecond;
// CPU per piggybacked item processed (PCV bulk validation, PSI change-list
// assembly).
inline constexpr Time kPiggybackItemCpu = 2 * kMillisecond;
// The pseudo-client's replay-program overhead per request (trace parsing,
// socket setup; this dominates the paper's replay pacing), and a proxy's
// time to serve a hit or to forward a miss.
inline constexpr Time kThinkTime = 1 * kSecond;
inline constexpr Time kProxyHitTime = 1 * kMillisecond;
inline constexpr Time kProxyForwardOverhead = 1 * kMillisecond;

// One server->site frame: a single INVALIDATE or multicast copy has one
// URL, an INVB frame its site's URLs, an INVSRV one empty URL. Delivering a
// URL acks each of its write ids and a refusal resolves them dead, so a
// batch frame is just many (url, write id) acks resolving at once.
struct Push {
  std::string site;
  std::vector<std::string> urls;
  // Parallel to `urls`: the writes each URL resolves (several when an
  // outbox entry coalesced writes); 0 names no write.
  std::vector<std::vector<std::uint64_t>> write_ids;
  bool server_notice = false;  // INVSRV: the site's copies turn questionable
  bool recovery = false;       // resolving it closes one recovery notice
};

class Engine {
 public:
  explicit Engine(const ReplayConfig& config)
      : config_(config),
        trace_(*config.trace),
        net_(sim_, config.network),
        policy_(core::consistency::MakePolicy(config.protocol, config.ttl)),
        site_(policy_->traits(), config.lease, config.accelerator_shards,
              "origin"),
        server_cpu_(sim_, "server-cpu"),
        server_disk_(sim_, "server-disk") {
    WEBCC_CHECK_MSG(config.trace != nullptr, "replay needs a trace");
    WEBCC_CHECK_MSG(config.num_pseudo_clients > 0, "need pseudo-clients");
    Setup();
  }

  ReplayMetrics Run();

 private:
  struct PseudoClient {
    int index = 0;
    sim::NodeId node = 0;
    std::unique_ptr<http::ProxyCache> cache;
    std::vector<std::uint32_t> records;  // its slice: indices into trace_
    std::size_t cursor = 0;        // next record to issue
    std::size_t window_end = 0;    // bound for the current interval
    bool down = false;
    std::uint64_t outstanding = 0;  // seq of the in-flight request; 0 = none
    Time request_start = 0;         // wall time the in-flight request began
    sim::EventId timeout;           // the in-flight request's reply timeout
    // The in-flight request's PCV batch, held here rather than in the
    // message: the first copy to reach the server takes it, so a duplicated
    // or timed-out copy validates nothing.
    std::vector<net::PcvQuery> pcv_batch;
  };

  sim::NodeId ServerNode() const {
    return static_cast<sim::NodeId>(clients_.size());
  }
  sim::NodeId ParentNode() const {
    return static_cast<sim::NodeId>(clients_.size() + 1);
  }
  // Static protocol capabilities, from the consistency kernel.
  const core::consistency::Traits& Traits() const {
    return policy_->traits();
  }
  bool InvalidationMode() const { return Traits().invalidation_callbacks; }

  // --- setup (engine.cc) -----------------------------------------------------
  void Setup();

  // --- lock-step coordinator (engine.cc) -------------------------------------
  void StartInterval();
  void ParticipantDone();
  // One crash or partition from config.fault_plan: its onset or its
  // recovery (restart / heal), keyed by trace time; it fires at the start
  // of the first lock-step interval covering it.
  struct FailureStep {
    Time trace_time = 0;
    fault::FaultKind kind = fault::FaultKind::kProxyCrash;  // not kLinkFault
    bool onset = true;
    int target = 0;  // pseudo-client index; ignored for the server
  };
  void ApplyFailure(const FailureStep& step);

  // --- pseudo-client request loop (engine.cc) ---------------------------------
  void IssueNext(PseudoClient& pc);
  void FinishRequest(PseudoClient& pc, Time latency);
  void LocalServe(PseudoClient& pc, http::CacheEntry& entry, Time trace_time);
  void SendToServer(PseudoClient& pc, net::Request request, Time trace_time,
                    bool lease_renewal);
  void ServerHandle(net::Request& request, int client_index,
                    std::uint64_t seq, Time trace_time);
  // The server's charge for serving `reply`: the access-log write, the
  // request CPU plus `extra_cpu`, and a 200's file read. Returns when the
  // reply is ready to send.
  Time ChargeServe(const net::Reply& reply, Time extra_cpu);
  // Counts a leaf-facing 200/304 and emits its event.
  void CountReply(const net::Reply& reply, std::string_view site,
                  Time trace_time);
  // Bytes a reply puts on the simulated link: the header plus the
  // scaled-down body, as in the paper's testbed.
  std::uint64_t TransferBytes(const net::Reply& reply) const;
  void DeliverReply(int client_index, std::uint64_t seq, net::Reply reply,
                    std::string owner, Time trace_time);

  // --- hierarchy: parent proxy (engine_hierarchy.cc) ---------------------------
  // A leaf's request at the parent, until the parent answers it.
  struct LeafRequest {
    net::Request request;  // the leaf's GET, or its IMS with its validator
    int client_index = 0;
    std::uint64_t seq = 0;
    Time trace_time = 0;
  };
  // The parent as a proxy: serves from its copy when StartFetch lets it,
  // otherwise fetches or revalidates through the server as site "parent".
  void ParentHandle(LeafRequest leaf);
  void ServerHandleForParent(const net::Request& upstream, LeafRequest leaf);
  void ParentReceiveReply(net::Reply reply, LeafRequest leaf);
  // The parent as the leaves' server: answers `leaf` from `copy`, a 200
  // carrying the parent's copy, and registers the leaf's interest in it.
  void ParentAnswer(net::Reply copy, LeafRequest leaf);
  // A push from the server: the parent drops its copy (or marks it
  // questionable) and forwards the push to the leaves below it.
  void ParentDeliverPush(const Push& push, std::uint64_t wire);

  // --- modifier / invalidation path (engine_invalidation.cc) -------------------
  void ModifierStep();
  // Fans out the invalidations for one modification. `on_complete` runs when
  // the modifier may proceed: in serialized mode after every message is
  // delivered (the paper's check-in blocks until the accelerator finishes
  // sending), in decoupled mode immediately.
  void FanOutInvalidations(std::vector<net::Invalidation> invalidations,
                           const std::string& url, Time trace_time,
                           std::function<void()> on_complete);
  // The one send path for every server->site push (the paper's write-
  // completion rule, Sections 4 and 5.2): TCP with periodic retry across
  // partitions, a refused connection resolving the site dead. `wire` is
  // the frame's size, computed by the caller for its message format.
  void SendPush(Push push, std::uint64_t wire);
  void DeliverPush(const Push& push, int client_index);
  void RefusePush(const Push& push, Time done_at);
  void ResolveFirstAttempt(std::uint64_t mod_id);
  void CompleteWrite(const std::string& url);
  void FinishRecoveryNotice();
  void ServerRecover(Time trace_time);

  // --- batched fan-out (engine_invalidation.cc) --------------------------------
  // Batching applies to decoupled, unicast, flat-topology runs: the other
  // modes send each invalidation as its own one-URL frame.
  bool BatchingEnabled() const {
    return config_.invalidation_batch_window > 0 &&
           !config_.serialized_invalidation &&
           !config_.multicast_invalidation && !config_.hierarchical;
  }
  // Arms a drain of `shard`'s outbox after `delay` (no-op if one is armed).
  void ScheduleOutboxDrain(std::uint32_t shard, Time delay);
  // Packs the shard's pending entries into per-site batches and puts each
  // on the shard's sender. Sites that are partitioned but alive stay queued
  // (their entries keep coalescing until the link heals); down sites drain
  // normally so the refusal resolves their write targets as dead.
  void DrainOutbox(std::uint32_t shard);

  // --- helpers ----------------------------------------------------------------
  // Records a trace client's route when its first request leaves the proxy
  // cache: only a site the server has seen can be an invalidation target,
  // and the server sees a site only through such a request.
  void NoteServerContact(trace::ClientId client, int client_index) {
    if (client_routed_[client]) return;
    client_routed_[client] = 1;
    pseudo_of_client_.emplace(trace_.clients[client], client_index);
  }
  // The pseudo-client hosting invalidation target `site`.
  int PseudoOf(std::string_view site) const {
    const auto it = pseudo_of_client_.find(site);
    WEBCC_CHECK_MSG(it != pseudo_of_client_.end(),
                    "invalidation for a site that never contacted the server");
    return it->second;
  }
  const std::string& DocPath(trace::DocId doc) const {
    return trace_.documents[doc].path;
  }
  // When serving `entry` at trace time `trace_now` returns outdated data
  // *in trace order*, yields the trace time the copy became stale (version
  // v became obsolete at the trace time of the modification that produced
  // v+1); nullopt when the serve is fresh. Lock-step compression can
  // process a modification in wall time before a request that precedes it
  // in trace time; such a read linearizes before the write and is fresh.
  std::optional<Time> StaleSince(const http::CacheEntry& entry,
                                 Time trace_now) const {
    const auto it = mod_times_.find(entry.url);
    if (it == mod_times_.end()) return std::nullopt;
    const std::vector<Time>& times = it->second;
    WEBCC_DCHECK(entry.version >= 1);
    const std::size_t obsolete_index = entry.version - 1;
    if (obsolete_index < times.size() && times[obsolete_index] <= trace_now) {
      return times[obsolete_index];
    }
    return std::nullopt;
  }
  // The trace time the current lock-step interval started; the engine's
  // best trace-order approximation of "now" for events (like a write
  // completion) triggered from wall-time callbacks.
  Time CurrentWindowStart() const {
    return static_cast<Time>(interval_index_) * config_.lockstep_interval;
  }
  void CheckStaleness(const PseudoClient& pc, const http::CacheEntry& entry,
                      Time trace_time);

  const ReplayConfig& config_;
  const trace::Trace& trace_;

  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<const core::consistency::ConsistencyPolicy> policy_;
  core::ServerSite site_;
  sim::FifoStation server_cpu_;
  sim::FifoStation server_disk_;
  // Decoupled mode: one dedicated sender per accelerator shard (built in
  // Setup; FifoStation is non-copyable, hence the indirection). Serialized
  // mode charges server_cpu_ and never touches these.
  std::vector<std::unique_ptr<sim::FifoStation>> inval_senders_;
  // Batched mode: per-shard outboxes and the armed-drain flags.
  std::vector<core::InvalidationOutbox> outboxes_;
  std::vector<char> drain_scheduled_;

  std::vector<PseudoClient> clients_;
  // Invalidation routing, site name -> pseudo-client index: the shared-proxy
  // names from Setup, each trace client from its first contact with the
  // server (NoteServerContact). Keys view trace_.clients and
  // proxy_site_names_, neither of which reallocates after Setup.
  std::unordered_map<std::string_view, int> pseudo_of_client_;
  std::vector<char> client_routed_;            // by trace client id
  std::vector<std::string> proxy_site_names_;  // shared-proxy site identities

  // Hierarchical mode: the parent proxy's shared cache, its CPU station,
  // and per URL the leaves it answered since it last forwarded an
  // invalidation, as ascending pseudo-client indices. leaf_names_[i] is
  // leaf i's site name in trace events and write-delivery targets.
  std::unique_ptr<http::ProxyCache> parent_cache_;
  std::unique_ptr<sim::FifoStation> parent_cpu_;
  std::unordered_map<std::string, std::vector<int>> leaf_interest_;
  std::vector<std::string> leaf_names_;

  std::vector<trace::ModEvent> modifications_;
  std::size_t mod_cursor_ = 0;
  std::size_t mod_window_end_ = 0;

  std::vector<FailureStep> failures_;  // sorted by trace_time
  std::size_t failure_cursor_ = 0;

  // Seeded link-fault injector (nullptr when the config has no fault plan
  // with link-fault windows); advanced at every lock-step boundary.
  std::unique_ptr<fault::FaultClock> fault_clock_;

  std::size_t interval_index_ = 0;
  std::size_t num_intervals_ = 0;
  int participants_ = 0;
  bool server_down_ = false;
  // True from a server-site crash until the recovery broadcast finishes:
  // modifications in this window cannot complete (their invalidations reach
  // clients only as the recovery INVSRV notices), so stale serves are still
  // within the strong-consistency contract.
  bool write_gap_active_ = false;
  int recovery_notices_pending_ = 0;

  std::uint64_t next_seq_ = 1;
  std::uint64_t next_mod_id_ = 1;
  // Writes (modifications) whose invalidation fan-out has not finished;
  // stale serves are legitimate only while the document has one in
  // progress.
  std::unordered_map<std::string, int> writes_in_progress_;
  // Trace times at which each document version became obsolete:
  // mod_times_[url][v-1] is the modification that superseded version v.
  std::unordered_map<std::string, std::vector<Time>> mod_times_;
  // PSI: each proxy's contact cursor.
  std::vector<Time> psi_last_contact_;
  struct PendingMod {
    // Write-delivery state machine (the paper's completion rule): the write
    // completes when every targeted site has acked, died, or had its lease
    // expire — never by merely giving up.
    core::WriteDelivery delivery;
    Time started_trace = 0;  // modification trace time (fan-out start)
    Time started_wall = 0;   // sim wall time the fan-out began
    // Unresolved first transmission attempts: the blocking check-in (the
    // modifier's gate) waits only for these — a send that hits a partition
    // moves to background retry and stops gating the modifier, exactly like
    // a failed TCP send being queued for periodic retry.
    int first_pending = 0;
    std::function<void()> on_complete;  // modifier continuation (serialized)
  };
  std::unordered_map<std::uint64_t, PendingMod> pending_mod_targets_;
  // Resolves one delivery target (ack or death); completes the write when
  // it was the last outstanding one.
  void ResolveWriteTarget(std::uint64_t mod_id, std::string_view site,
                          bool dead);
  // Records completion metrics/events for a resolved delivery (does not
  // touch the modifier gate, which is first_pending's job).
  void FinishWriteDelivery(PendingMod& pending);
  // Lock-step boundary sweep: completes writes whose straggler targets'
  // leases have all expired (Section 6's bound on write latency).
  void SweepExpiredWriteTargets(Time trace_now);

  Time wall_end_ = 0;
  ReplayMetrics metrics_;
  // Structured tracing (nullptr = off). Every emit site below sits exactly
  // at the increment of the ReplayMetrics counter it mirrors, so JSONL event
  // counts reconcile with the paper tables (see DESIGN.md).
  obs::TraceSink* sink_ = nullptr;
};

}  // namespace webcc::replay::detail
