// Everything a replay run measures — the union of the columns of the
// paper's Tables 3, 4 and 5 plus the exact staleness accounting the paper
// could only estimate.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "stats/latency.h"
#include "util/time.h"

namespace webcc::replay {

struct ReplayMetrics {
  // --- message counts (Tables 3/4) ----------------------------------------
  std::uint64_t get_requests = 0;
  std::uint64_t ims_requests = 0;
  std::uint64_t replies_200 = 0;
  std::uint64_t replies_304 = 0;
  std::uint64_t invalidations_sent = 0;   // INVALIDATE with a URL
  std::uint64_t invsrv_sent = 0;          // server-address INVALIDATE
  // Multicast mode: number of group sends (one per modification with a
  // non-empty site list); each replaces `list length` unicast sends.
  std::uint64_t multicast_sends = 0;
  // Batched mode: INVB wire frames sent (each carries >= 1 URLs for one
  // site) and queued invalidations absorbed into an already-pending
  // (site, url) entry instead of becoming new wire payload.
  std::uint64_t invalidation_frames_sent = 0;
  std::uint64_t invalidations_coalesced = 0;
  std::uint64_t message_bytes = 0;        // unscaled, all of the above

  // "Hits": requests satisfied without a file transfer. Local serves and
  // 304-validated serves both count, which is why polling's hit count
  // includes hits on stale copies, as the paper notes.
  std::uint64_t local_hits = 0;
  std::uint64_t validated_hits = 0;
  std::uint64_t cache_hits() const { return local_hits + validated_hits; }

  // Network-level invalidation message count: with multicast one group
  // send covers a whole site list; with batching one INVB frame covers
  // every pending URL for one site.
  std::uint64_t invalidation_messages() const {
    if (multicast_sends > 0) return multicast_sends;
    if (invalidation_frames_sent > 0) return invalidation_frames_sent;
    return invalidations_sent;
  }

  std::uint64_t total_messages() const {
    return get_requests + ims_requests + replies_200 + replies_304 +
           invalidation_messages() + invsrv_sent;
  }

  // --- client response time (wall), milliseconds --------------------------
  stats::LatencyStats latency_ms;

  // --- server load ---------------------------------------------------------
  double server_cpu_utilization = 0.0;
  double disk_reads_per_second = 0.0;
  double disk_writes_per_second = 0.0;
  Time wall_duration = 0;

  // --- staleness (ground truth) --------------------------------------------
  // Serves of an outdated version. For adaptive TTL these are the "stale
  // hits"; for invalidation a stale serve is legitimate exactly while the
  // client's invalidation is still in flight (the write has not completed).
  std::uint64_t stale_serves = 0;
  std::uint64_t stale_while_invalidation_in_flight = 0;
  // Stale serves after write completion: must be zero for both strong
  // protocols; the replay engine checks this invariant.
  std::uint64_t strong_violations = 0;

  // --- invalidation costs (Table 5) ----------------------------------------
  std::uint64_t sitelist_storage_bytes = 0;  // at end of run
  std::uint64_t sitelist_entries = 0;        // at end of run
  std::uint64_t sitelist_max_len_end = 0;    // longest list at end of run
  double sitelist_avg_len_at_mod = 0.0;      // over modified documents
  std::uint64_t sitelist_max_len_at_mod = 0;
  // Time for the server to push all invalidations of one modification.
  stats::LatencyStats invalidation_time_ms;
  // Batched mode: wall time an invalidation waited in the outbox before its
  // frame was drained (bounded by the batch window plus partition holds).
  stats::LatencyStats batch_flush_ms;
  // Per-shard sender occupancy (decoupled mode; zero when serialized): the
  // busiest shard's busy time and the sum over shards. The bench derives
  // per-shard throughput as wire URLs / max busy time.
  std::uint64_t inval_sender_busy_max_us = 0;
  std::uint64_t inval_sender_busy_total_us = 0;

  // --- hierarchy (parent proxy) ----------------------------------------------
  // Leaf misses answered from the parent's shared cache without a server
  // trip, and the parent's own upstream fetches (hop-2 requests; their
  // replies are implied). Existing request/reply counters remain
  // leaf-facing so conservation identities hold in every topology.
  std::uint64_t parent_hits = 0;
  std::uint64_t parent_fetches = 0;
  // INVALIDATE forwards from the parent to interested leaf proxies
  // (invalidations_sent counts only what the server itself sends).
  std::uint64_t hierarchy_forwards = 0;

  // Messages on the parent<->server link (hop-2 request + reply pairs).
  std::uint64_t hierarchy_messages() const { return 2 * parent_fetches; }

  // --- piggyback schemes (PCV / PSI) ----------------------------------------
  std::uint64_t pcv_items_piggybacked = 0;  // entries bulk-validated
  std::uint64_t pcv_invalidated = 0;        // entries found changed
  std::uint64_t psi_notices = 0;            // modified-url notices delivered
  std::uint64_t psi_entries_erased = 0;     // proxy entries purged by PSI

  // --- lease bookkeeping (Section 6) ---------------------------------------
  // IMS requests issued because a lease (not a TTL) had expired; the
  // "extra if-modified-since" cost of lease-augmented schemes.
  std::uint64_t lease_renewal_ims = 0;

  // --- write-delivery state machine (failure recovery) ----------------------
  // Writes whose delivery resolved (all acks, all leases expired/dead, or no
  // targets); equals the kWriteComplete event count.
  std::uint64_t write_completions = 0;
  // The subset unblocked by the Section 6 bound (a straggler's lease lapsed
  // or its proxy was known dead) rather than by a full ack set.
  std::uint64_t write_lease_expired_completions = 0;
  // Targeted kInvalidateUrl messages produced by journal-based recovery
  // (invsrv_sent counts the blanket broadcast of the journal-less path).
  std::uint64_t recovery_invalidations_sent = 0;
  std::uint64_t journal_rebuilds = 0;            // server restarts that replayed the WAL
  std::uint64_t journal_damaged_recoveries = 0;  // ... that found it damaged
  // Wall time from fan-out start to write completion, and the trace-time
  // span a write stayed incomplete (lock-step granular; the lease-bound
  // assertion in tests/test_fault_scenarios.cc reads this one).
  stats::LatencyStats write_completion_wall_ms;
  stats::LatencyStats write_blocked_trace_ms;
  // Trace-time age of the superseded copy at each stale serve; the weak
  // protocols' staleness is bounded by TTL, leases by lease duration.
  stats::LatencyStats stale_age_ms;

  // --- injected link faults (src/fault/) ------------------------------------
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_dups = 0;
  std::uint64_t injected_delays = 0;

  // --- bookkeeping ----------------------------------------------------------
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_skipped = 0;  // pseudo-client was down
  std::uint64_t request_timeouts = 0;
  std::uint64_t modifications_applied = 0;
  std::uint64_t invalidations_delivered = 0;
  std::uint64_t invalidations_refused = 0;  // target proxy down
  std::uint64_t proxy_evictions = 0;
  std::uint64_t proxy_expired_evictions = 0;
  std::uint64_t proxy_oversize_rejections = 0;

  // --- hot-loop observability -----------------------------------------------
  // Simulator events executed and the event queue's high-water mark: the
  // denominator and the working-set size of the replay's inner loop.
  // Cancelled events (a request timeout whose reply arrived) neither run
  // nor stay queued, so they count in neither.
  std::uint64_t sim_events_executed = 0;
  std::uint64_t sim_peak_queue_depth = 0;
  // Host (real) seconds this replay took; the only nondeterministic field,
  // excluded from SameSimulation().
  double host_seconds = 0.0;

  double events_per_second() const {
    return host_seconds > 0.0
               ? static_cast<double>(sim_events_executed) / host_seconds
               : 0.0;
  }
  double requests_per_second() const {
    return host_seconds > 0.0
               ? static_cast<double>(requests_issued) / host_seconds
               : 0.0;
  }

  // One-line sanity summary for logs/examples.
  std::string Summary() const;

  // Snapshots every field (and the derived totals) into `registry` under
  // "replay.". The paper tables are still rendered from this struct directly
  // — the registry is the machine-readable superset, so adding metrics can
  // never perturb the table formatting.
  void ExportTo(obs::MetricsRegistry& registry) const;

  // Heap bytes held by the six histograms above; follows their value
  // ranges, not the request count.
  std::uint64_t MemoryFootprintBytes() const;

  // Every field, host_seconds included; SameSimulation is the comparison
  // that ignores host timing.
  bool operator==(const ReplayMetrics& other) const = default;
};

// True when two runs produced the identical simulation: every field but
// host_seconds is equal, each histogram in its exact aggregates, its buckets
// and its sample fingerprint (stats::LatencyStats's ==). Host timing
// (host_seconds, and the rates derived from it) is deliberately excluded —
// it is the one field that varies between an N=1 and an N=8 replay batch
// of the same config.
bool SameSimulation(ReplayMetrics a, ReplayMetrics b);

}  // namespace webcc::replay
