#include "replay/metrics.h"

#include <cstdio>

#include "util/format.h"

namespace webcc::replay {

std::string ReplayMetrics::Summary() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "requests=%llu hits=%llu (local=%llu validated=%llu) msgs=%llu "
      "bytes=%s lat(avg/min/max ms)=%.1f/%.1f/%.1f cpu=%.1f%% stale=%llu "
      "violations=%llu",
      static_cast<unsigned long long>(requests_issued),
      static_cast<unsigned long long>(cache_hits()),
      static_cast<unsigned long long>(local_hits),
      static_cast<unsigned long long>(validated_hits),
      static_cast<unsigned long long>(total_messages()),
      util::HumanBytes(message_bytes).c_str(), latency_ms.mean(),
      latency_ms.min(), latency_ms.max(), server_cpu_utilization * 100.0,
      static_cast<unsigned long long>(stale_serves),
      static_cast<unsigned long long>(strong_violations));
  return buf;
}

void ReplayMetrics::ExportTo(obs::MetricsRegistry& registry) const {
  // Counters: every Tables 3/4/5 column plus the exact staleness accounting.
  registry.SetCounter("replay.get_requests", get_requests);
  registry.SetCounter("replay.ims_requests", ims_requests);
  registry.SetCounter("replay.replies_200", replies_200);
  registry.SetCounter("replay.replies_304", replies_304);
  registry.SetCounter("replay.invalidations_sent", invalidations_sent);
  registry.SetCounter("replay.invsrv_sent", invsrv_sent);
  registry.SetCounter("replay.multicast_sends", multicast_sends);
  registry.SetCounter("replay.invalidation_frames_sent",
                      invalidation_frames_sent);
  registry.SetCounter("replay.invalidations_coalesced",
                      invalidations_coalesced);
  registry.SetCounter("replay.inval_sender_busy_max_us",
                      inval_sender_busy_max_us);
  registry.SetCounter("replay.inval_sender_busy_total_us",
                      inval_sender_busy_total_us);
  registry.SetCounter("replay.message_bytes", message_bytes);
  registry.SetCounter("replay.local_hits", local_hits);
  registry.SetCounter("replay.validated_hits", validated_hits);
  registry.SetCounter("replay.cache_hits", cache_hits());
  registry.SetCounter("replay.invalidation_messages",
                      invalidation_messages());
  registry.SetCounter("replay.total_messages", total_messages());
  registry.SetCounter("replay.stale_serves", stale_serves);
  registry.SetCounter("replay.stale_while_invalidation_in_flight",
                      stale_while_invalidation_in_flight);
  registry.SetCounter("replay.strong_violations", strong_violations);
  registry.SetCounter("replay.sitelist_storage_bytes", sitelist_storage_bytes);
  registry.SetCounter("replay.sitelist_entries", sitelist_entries);
  registry.SetCounter("replay.sitelist_max_len_end", sitelist_max_len_end);
  registry.SetCounter("replay.sitelist_max_len_at_mod",
                      sitelist_max_len_at_mod);
  registry.SetCounter("replay.parent_hits", parent_hits);
  registry.SetCounter("replay.parent_fetches", parent_fetches);
  registry.SetCounter("replay.hierarchy_forwards", hierarchy_forwards);
  registry.SetCounter("replay.pcv_items_piggybacked", pcv_items_piggybacked);
  registry.SetCounter("replay.pcv_invalidated", pcv_invalidated);
  registry.SetCounter("replay.psi_notices", psi_notices);
  registry.SetCounter("replay.psi_entries_erased", psi_entries_erased);
  registry.SetCounter("replay.lease_renewal_ims", lease_renewal_ims);
  registry.SetCounter("replay.write_completions", write_completions);
  registry.SetCounter("replay.write_lease_expired_completions",
                      write_lease_expired_completions);
  registry.SetCounter("replay.recovery_invalidations_sent",
                      recovery_invalidations_sent);
  registry.SetCounter("replay.journal_rebuilds", journal_rebuilds);
  registry.SetCounter("replay.journal_damaged_recoveries",
                      journal_damaged_recoveries);
  registry.SetCounter("replay.injected_drops", injected_drops);
  registry.SetCounter("replay.injected_dups", injected_dups);
  registry.SetCounter("replay.injected_delays", injected_delays);
  registry.SetCounter("replay.requests_issued", requests_issued);
  registry.SetCounter("replay.requests_skipped", requests_skipped);
  registry.SetCounter("replay.request_timeouts", request_timeouts);
  registry.SetCounter("replay.modifications_applied", modifications_applied);
  registry.SetCounter("replay.invalidations_delivered",
                      invalidations_delivered);
  registry.SetCounter("replay.invalidations_refused", invalidations_refused);
  registry.SetCounter("replay.proxy_evictions", proxy_evictions);
  registry.SetCounter("replay.proxy_expired_evictions",
                      proxy_expired_evictions);
  registry.SetCounter("replay.proxy_oversize_rejections",
                      proxy_oversize_rejections);
  registry.SetCounter("replay.sim_events_executed", sim_events_executed);
  registry.SetCounter("replay.sim_peak_queue_depth", sim_peak_queue_depth);

  // Gauges: ratios, utilizations and the host-time rates (the only
  // nondeterministic entries, mirroring SameSimulation's exclusions).
  registry.SetGauge("replay.server_cpu_utilization", server_cpu_utilization);
  registry.SetGauge("replay.disk_reads_per_second", disk_reads_per_second);
  registry.SetGauge("replay.disk_writes_per_second", disk_writes_per_second);
  registry.SetGauge("replay.wall_duration_us",
                    static_cast<double>(wall_duration));
  registry.SetGauge("replay.sitelist_avg_len_at_mod", sitelist_avg_len_at_mod);
  registry.SetGauge("replay.host_seconds", host_seconds);

  // Distributions.
  registry.MergeHistogram("replay.latency_ms", latency_ms);
  registry.MergeHistogram("replay.invalidation_time_ms", invalidation_time_ms);
  registry.MergeHistogram("replay.batch_flush_ms", batch_flush_ms);
  registry.MergeHistogram("replay.write_completion_wall_ms",
                          write_completion_wall_ms);
  registry.MergeHistogram("replay.write_blocked_trace_ms",
                          write_blocked_trace_ms);
  registry.MergeHistogram("replay.stale_age_ms", stale_age_ms);
}

std::uint64_t ReplayMetrics::MemoryFootprintBytes() const {
  return latency_ms.MemoryFootprintBytes() +
         invalidation_time_ms.MemoryFootprintBytes() +
         batch_flush_ms.MemoryFootprintBytes() +
         write_completion_wall_ms.MemoryFootprintBytes() +
         write_blocked_trace_ms.MemoryFootprintBytes() +
         stale_age_ms.MemoryFootprintBytes();
}

bool SameSimulation(ReplayMetrics a, ReplayMetrics b) {
  a.host_seconds = b.host_seconds = 0.0;
  return a == b;
}

}  // namespace webcc::replay
