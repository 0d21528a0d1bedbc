#include "replay/engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "core/lease.h"
#include "obs/event.h"
#include "replay/engine_impl.h"
#include "util/distributions.h"
#include "util/log.h"
#include "util/rng.h"

namespace webcc::replay {
namespace detail {

void Engine::Setup() {
  sink_ = config_.trace_sink;
  net_.set_trace_sink(sink_);
  core::ShardedAccelerator& accel = site_.accelerator();
  accel.set_trace_sink(sink_);  // propagates to every shard and its table

  // One dedicated sender (and, for batching, one outbox) per accelerator
  // shard. Serialized mode never touches them, keeping the paper's shared
  // server CPU — and its metrics — shard-count invariant.
  const std::uint32_t num_shards = accel.num_shards();
  inval_senders_.reserve(num_shards);
  for (std::uint32_t i = 0; i < num_shards; ++i) {
    inval_senders_.push_back(std::make_unique<sim::FifoStation>(
        sim_, "invalidation-sender-" + std::to_string(i)));
  }
  outboxes_.resize(num_shards);
  drain_scheduled_.assign(num_shards, 0);

  // Document store with pre-trace ages so adaptive TTL sees a realistic age
  // distribution at t = 0 (files on a real server predate the log).
  util::Rng rng(config_.seed);
  for (const trace::DocumentInfo& doc : trace_.documents) {
    const Time initial_age =
        config_.fixed_initial_age >= 0
            ? config_.fixed_initial_age
            : static_cast<Time>(util::SampleExponential(
                  rng, static_cast<double>(config_.mean_lifetime)));
    site_.docs().Add(doc.path, doc.size_bytes, -initial_age);
  }

  clients_.resize(config_.num_pseudo_clients);
  for (std::uint32_t i = 0; i < config_.num_pseudo_clients; ++i) {
    PseudoClient& pc = clients_[i];
    pc.index = static_cast<int>(i);
    pc.node = static_cast<sim::NodeId>(i);
    pc.cache = std::make_unique<http::ProxyCache>(config_.proxy_cache_bytes,
                                                  config_.eviction_policy);
    pc.cache->set_trace_sink(sink_);
  }
  psi_last_contact_.assign(config_.num_pseudo_clients, 0);
  proxy_site_names_.reserve(config_.num_pseudo_clients);
  for (std::uint32_t i = 0; i < config_.num_pseudo_clients; ++i) {
    proxy_site_names_.push_back("proxy-" + std::to_string(i));
    pseudo_of_client_.emplace(proxy_site_names_.back(), static_cast<int>(i));
  }
  // Trace clients are routed lazily (NoteServerContact): a million-site
  // scenario names far more clients than its requests ever reach.
  client_routed_.assign(trace_.clients.size(), 0);
  // Each pseudo-client reads the shared trace through its slice of record
  // indices. Size each slice exactly (a counting pass is cheaper than the
  // doubling reallocations of tens of thousands of push_backs).
  WEBCC_CHECK_MSG(trace_.records.size() <= UINT32_MAX,
                  "trace too long for 32-bit record indices");
  std::vector<std::size_t> slice_sizes(config_.num_pseudo_clients, 0);
  for (const trace::TraceRecord& record : trace_.records) {
    ++slice_sizes[record.client % config_.num_pseudo_clients];
  }
  for (std::uint32_t i = 0; i < config_.num_pseudo_clients; ++i) {
    clients_[i].records.reserve(slice_sizes[i]);
  }
  for (std::size_t i = 0; i < trace_.records.size(); ++i) {
    clients_[trace_.records[i].client % config_.num_pseudo_clients]
        .records.push_back(static_cast<std::uint32_t>(i));
  }
  // The queue holds live events only: per pseudo-client its in-flight hop
  // and reply timeout (a delivered reply cancels the timeout), the
  // coordinator's few, plus invalidation fan-out bursts queued on the server
  // CPU or the shard senders, which grow the slab past this.
  sim_.Reserve(static_cast<std::size_t>(config_.num_pseudo_clients) * 8 + 256);

  if (!config_.explicit_modifications.empty()) {
    modifications_ = config_.explicit_modifications;
    // Callers may build these by hand; the modifier and the PSI log both
    // require time order.
    std::stable_sort(modifications_.begin(), modifications_.end(),
                     [](const trace::ModEvent& a, const trace::ModEvent& b) {
                       return a.at < b.at;
                     });
  } else if (config_.suppress_generated_modifications) {
    modifications_.clear();
  } else {
    trace::ModifierConfig mod_config;
    mod_config.duration = trace_.duration;
    mod_config.num_documents =
        static_cast<std::uint32_t>(trace_.documents.size());
    mod_config.mean_lifetime = config_.mean_lifetime;
    mod_config.seed = config_.modifier_seed;
    modifications_ = trace::GenerateModifierSchedule(mod_config);
  }

  if (config_.fault_plan != nullptr) {
    // Expand the declarative plan: crash and partition events become
    // FailureStep pairs (onset + recovery); link-fault windows go to the
    // FaultClock below.
    fault::FaultPlan plan = *config_.fault_plan;
    fault::Canonicalize(plan);
    const auto add_steps = [this](const fault::FaultEvent& event,
                                  int target) {
      failures_.push_back({event.at, event.kind, /*onset=*/true, target});
      failures_.push_back(
          {event.at + event.duration, event.kind, /*onset=*/false, target});
    };
    bool has_link_faults = false;
    for (const fault::FaultEvent& event : plan.events) {
      switch (event.kind) {
        case fault::FaultKind::kProxyCrash: {
          WEBCC_CHECK_MSG(
              event.target >= 0 &&
                  event.target < static_cast<int>(config_.num_pseudo_clients),
              "fault plan proxy_crash target out of range");
          add_steps(event, event.target);
          break;
        }
        case fault::FaultKind::kServerCrash:
          add_steps(event, 0);
          break;
        case fault::FaultKind::kPartition: {
          const int first = event.target < 0 ? 0 : event.target;
          const int last = event.target < 0
                               ? static_cast<int>(config_.num_pseudo_clients)
                               : event.target + 1;
          WEBCC_CHECK_MSG(
              last <= static_cast<int>(config_.num_pseudo_clients),
              "fault plan partition target out of range");
          for (int target = first; target < last; ++target) {
            add_steps(event, target);
          }
          break;
        }
        case fault::FaultKind::kLinkFault:
          has_link_faults = true;
          break;
      }
    }
    if (has_link_faults) {
      fault_clock_ =
          std::make_unique<fault::FaultClock>(plan, config_.fault_seed);
      std::vector<sim::NodeId> client_nodes;
      client_nodes.reserve(clients_.size());
      for (const PseudoClient& pc : clients_) client_nodes.push_back(pc.node);
      fault_clock_->BindNodes(ServerNode(), std::move(client_nodes));
      net_.set_fault_injector(fault_clock_.get());
    }
  }
  std::stable_sort(failures_.begin(), failures_.end(),
                   [](const FailureStep& a, const FailureStep& b) {
                     return a.trace_time < b.trace_time;
                   });
  // Write-ahead journaling has a per-request cost, so it is armed only when
  // a server crash is actually scheduled (and targeted recovery requested).
  if (config_.journaled_recovery && InvalidationMode() &&
      std::any_of(failures_.begin(), failures_.end(),
                  [](const FailureStep& step) {
                    return step.kind == fault::FaultKind::kServerCrash;
                  })) {
    accel.EnableJournal(true);
  }

  num_intervals_ = static_cast<std::size_t>(
      (trace_.duration + config_.lockstep_interval - 1) /
      config_.lockstep_interval);
  if (num_intervals_ == 0) num_intervals_ = 1;

  if (config_.hierarchical) {
    WEBCC_CHECK_MSG(InvalidationMode(),
                    "hierarchical mode is defined for the invalidation "
                    "protocol only");
    parent_cache_ = std::make_unique<http::ProxyCache>(
        config_.proxy_cache_bytes * 4, config_.eviction_policy);
    parent_cache_->set_trace_sink(sink_);
    parent_cpu_ = std::make_unique<sim::FifoStation>(sim_, "parent-cpu");
    leaf_names_.reserve(clients_.size());
    for (const PseudoClient& pc : clients_) {
      leaf_names_.push_back("leaf-" + std::to_string(pc.index));
    }
  }
}

ReplayMetrics Engine::Run() {
  // host_seconds is a wall-clock throughput gauge, excluded from the
  // determinism digests by design.
  // webcc-lint: allow(determinism-clock)
  const auto host_start = std::chrono::steady_clock::now();
  if (sink_ != nullptr) {
    std::string label(core::ToString(config_.protocol));
    label += " clients=";
    label += std::to_string(config_.num_pseudo_clients);
    label += " records=";
    label += std::to_string(trace_.records.size());
    sink_->Emit({.type = obs::EventType::kRunBegin, .label = label});
  }
  StartInterval();
  // Drain in-flight work after the last interval, but don't chase retry
  // loops forever if a partition is never healed.
  constexpr Time kDrainGrace = 10 * kMinute;
  while (sim_.Step()) {
    if (wall_end_ != 0 && sim_.now() > wall_end_ + kDrainGrace) break;
  }
  metrics_.host_seconds =
      // webcc-lint: allow(determinism-clock) — same wall-clock gauge as above.
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  metrics_.sim_events_executed = sim_.executed();
  metrics_.sim_peak_queue_depth = sim_.peak_pending();
  metrics_.injected_drops = net_.injected_drops();
  metrics_.injected_dups = net_.injected_dups();
  metrics_.injected_delays = net_.injected_delays();

  metrics_.server_cpu_utilization =
      server_cpu_.utilization().BusyFraction(wall_end_);
  metrics_.disk_reads_per_second =
      server_disk_.utilization().ReadsPerSecond(wall_end_);
  metrics_.disk_writes_per_second =
      server_disk_.utilization().WritesPerSecond(wall_end_);
  metrics_.wall_duration = wall_end_;

  for (const std::unique_ptr<sim::FifoStation>& sender : inval_senders_) {
    const std::uint64_t busy =
        static_cast<std::uint64_t>(sender->utilization().busy_time());
    metrics_.inval_sender_busy_total_us += busy;
    metrics_.inval_sender_busy_max_us =
        std::max(metrics_.inval_sender_busy_max_us, busy);
  }

  const core::ShardedAccelerator& accel = site_.accelerator();
  metrics_.sitelist_storage_bytes = accel.StorageBytes();
  metrics_.sitelist_entries = accel.TotalEntries();
  metrics_.sitelist_max_len_end = accel.MaxListLength();
  const core::AcceleratorStats accel_stats = accel.AggregateStats();
  const stats::LatencyStats& lengths = accel_stats.list_lengths_at_modification;
  metrics_.sitelist_avg_len_at_mod = lengths.mean();
  metrics_.sitelist_max_len_at_mod = static_cast<std::uint64_t>(lengths.max());
  // Every proxy's cache, the hierarchy's parent included.
  const auto count_cache = [this](const http::ProxyCache& cache) {
    metrics_.proxy_evictions += cache.stats().evictions;
    metrics_.proxy_expired_evictions += cache.stats().expired_evictions;
    metrics_.proxy_oversize_rejections += cache.stats().oversize_rejections;
  };
  for (const PseudoClient& pc : clients_) count_cache(*pc.cache);
  if (parent_cache_ != nullptr) count_cache(*parent_cache_);

  if (sink_ != nullptr) {
    sink_->Emit({.type = obs::EventType::kRunEnd,
                 .at = wall_end_,
                 .label = metrics_.Summary()});
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *config_.metrics;
    metrics_.ExportTo(registry);
    accel.ExportMetrics(registry, "accelerator.");
    net_.ExportMetrics(registry, "network.");
    // Memory attribution: the bytes held at the end of the run by each
    // structure that grows with the workload.
    std::uint64_t cache_bytes = 0;
    const std::uint64_t histogram_bytes =
        metrics_.MemoryFootprintBytes() + lengths.MemoryFootprintBytes();
    std::uint64_t trace_bytes =
        trace_.records.capacity() * sizeof(trace::TraceRecord);
    for (const PseudoClient& pc : clients_) {
      pc.cache->ExportMetrics(
          registry, "proxy." + std::to_string(pc.index) + ".cache.");
      cache_bytes += pc.cache->MemoryFootprintBytes();
      trace_bytes += pc.records.capacity() * sizeof(pc.records[0]);
    }
    if (parent_cache_ != nullptr) {
      parent_cache_->ExportMetrics(registry, "parent.cache.");
      cache_bytes += parent_cache_->MemoryFootprintBytes();
    }
    registry.SetCounter("memory.proxy_caches.bytes", cache_bytes);
    registry.SetCounter("memory.site_lists.bytes",
                        accel.TableFootprintBytes());
    registry.SetCounter("memory.histograms.bytes", histogram_bytes);
    registry.SetCounter("memory.trace.bytes", trace_bytes);
  }
  return std::move(metrics_);
}

// --- lock-step coordinator ---------------------------------------------------

void Engine::StartInterval() {
  const Time window_start =
      static_cast<Time>(interval_index_) * config_.lockstep_interval;
  const Time window_end = (interval_index_ + 1 == num_intervals_)
                              ? trace_.duration + 1
                              : window_start + config_.lockstep_interval;

  while (failure_cursor_ < failures_.size() &&
         failures_[failure_cursor_].trace_time < window_end) {
    ApplyFailure(failures_[failure_cursor_++]);
  }
  if (fault_clock_ != nullptr) fault_clock_->Advance(window_start, window_end);

  if (InvalidationMode()) {
    // O(expired) amortized: each shard's timer wheel only visits the slots
    // the clock passed since the previous window, so this boundary sweep
    // no longer scans the whole table (ROADMAP item 4).
    site_.accelerator().PruneExpired(window_start);
    // Section 6's write-latency bound: a write blocked on unreachable
    // targets completes once their leases have all lapsed.
    SweepExpiredWriteTargets(window_start);
  }

  participants_ = static_cast<int>(clients_.size()) + 1;  // clients + modifier

  for (PseudoClient& pc : clients_) {
    while (pc.window_end < pc.records.size() &&
           trace_.records[pc.records[pc.window_end]].timestamp < window_end) {
      ++pc.window_end;
    }
    sim_.After(0, [this, &pc] { IssueNext(pc); });
  }

  while (mod_window_end_ < modifications_.size() &&
         modifications_[mod_window_end_].at < window_end) {
    ++mod_window_end_;
  }
  sim_.After(0, [this] { ModifierStep(); });
}

void Engine::ParticipantDone() {
  WEBCC_CHECK(participants_ > 0);
  if (--participants_ > 0) return;
  ++interval_index_;
  if (interval_index_ < num_intervals_) {
    StartInterval();
  } else {
    wall_end_ = sim_.now();
  }
}

void Engine::ApplyFailure(const FailureStep& step) {
  const obs::EventType event_type =
      step.onset ? obs::EventType::kNodeCrash : obs::EventType::kNodeRestart;
  switch (step.kind) {
    case fault::FaultKind::kProxyCrash: {
      PseudoClient& pc = clients_.at(step.target);
      pc.down = step.onset;
      net_.SetNodeUp(pc.node, !step.onset);
      // The recovering proxy may have missed invalidations: everything it
      // holds must be revalidated before it can be served again.
      if (!step.onset) pc.cache->MarkAllQuestionable();
      obs::Emit(sink_, {.type = event_type,
                        .at = sim_.now(),
                        .trace_time = step.trace_time,
                        .site = proxy_site_names_[step.target]});
      break;
    }
    case fault::FaultKind::kServerCrash:
      server_down_ = step.onset;
      net_.SetNodeUp(ServerNode(), !step.onset);
      if (step.onset && InvalidationMode()) {
        site_.accelerator().Crash();
        write_gap_active_ = true;
      }
      obs::Emit(sink_, {.type = event_type,
                        .at = sim_.now(),
                        .trace_time = step.trace_time,
                        .site = "server"});
      if (!step.onset && InvalidationMode()) ServerRecover(step.trace_time);
      break;
    case fault::FaultKind::kPartition:
      if (step.onset) {
        net_.Partition(clients_.at(step.target).node, ServerNode());
      } else {
        net_.Heal(clients_.at(step.target).node, ServerNode());
      }
      break;
    case fault::FaultKind::kLinkFault:
      break;  // link faults run through fault_clock_, never as steps
  }
}

// --- pseudo-client request loop ------------------------------------------------

void Engine::IssueNext(PseudoClient& pc) {
  if (pc.down) {
    // Requests from users behind a dead proxy are lost for the interval.
    metrics_.requests_skipped += pc.window_end - pc.cursor;
    pc.cursor = pc.window_end;
  }
  if (pc.cursor >= pc.window_end) {
    ParticipantDone();
    return;
  }
  const trace::TraceRecord& record = trace_.records[pc.records[pc.cursor++]];
  ++metrics_.requests_issued;

  const std::string& url = DocPath(record.doc);
  // Shared mode: the whole proxy is one site (the firewall deployment of
  // Section 7) — one cache namespace and one invalidation target per proxy.
  const std::string& owner = config_.shared_proxy_cache
                                 ? proxy_site_names_[pc.index]
                                 : trace_.clients[record.client];
  const Time trace_time = record.timestamp;
  core::FetchStart start =
      core::StartFetch(*pc.cache, *policy_, url, owner, trace_time);
  if (start.hit != nullptr) {
    LocalServe(pc, *start.hit, trace_time);
    return;
  }
  if (!config_.shared_proxy_cache) NoteServerContact(record.client, pc.index);
  SendToServer(pc, std::move(start.request), trace_time, start.lease_renewal);
}

void Engine::FinishRequest(PseudoClient& pc, Time latency) {
  metrics_.latency_ms.Record(ToMillis(latency));
  sim_.After(kThinkTime, [this, &pc] { IssueNext(pc); });
}

void Engine::CheckStaleness(const PseudoClient& pc,
                            const http::CacheEntry& entry, Time trace_time) {
  const std::optional<Time> stale_since = StaleSince(entry, trace_time);
  if (!stale_since.has_value()) return;
  ++metrics_.stale_serves;
  // Trace-time age of the outdated copy: the weak protocols' staleness is
  // bounded by TTL, lease-augmented schemes by the lease duration.
  metrics_.stale_age_ms.Record(ToMillis(trace_time - *stale_since));
  obs::StaleKind kind = obs::StaleKind::kWeakProtocol;
  if (Traits().invalidation_callbacks) {
    const auto it = writes_in_progress_.find(entry.url);
    if (write_gap_active_ ||
        (it != writes_in_progress_.end() && it->second > 0)) {
      // The write has not completed (invalidations still in flight): a stale
      // read here is within the strong-consistency contract.
      ++metrics_.stale_while_invalidation_in_flight;
      kind = obs::StaleKind::kInvalidationInFlight;
    } else {
      ++metrics_.strong_violations;
      kind = obs::StaleKind::kStrongViolation;
      WEBCC_LOG_WARN(
          "strong-consistency violation: %s served stale at client %s (proxy %d)",
          entry.url.c_str(), entry.owner.c_str(), pc.index);
    }
  }
  obs::Emit(sink_, {.type = obs::EventType::kStaleHit,
                    .at = sim_.now(),
                    .trace_time = trace_time,
                    .url = entry.url,
                    .site = entry.owner,
                    .detail = static_cast<std::int64_t>(kind)});
}

void Engine::LocalServe(PseudoClient& pc, http::CacheEntry& entry,
                        Time trace_time) {
  ++metrics_.local_hits;
  obs::Emit(sink_,
            {.type = obs::EventType::kRequestServed,
             .at = sim_.now(),
             .trace_time = trace_time,
             .url = entry.url,
             .site = entry.owner,
             .detail = static_cast<std::int64_t>(obs::ServeKind::kLocalHit)});
  CheckStaleness(pc, entry, trace_time);
  FinishRequest(pc, kProxyHitTime);
}

void Engine::SendToServer(PseudoClient& pc, net::Request request,
                          Time trace_time, bool lease_renewal) {
  const std::uint64_t seq = next_seq_++;
  pc.outstanding = seq;
  pc.request_start = sim_.now();

  if (request.type == net::MessageType::kGet) {
    ++metrics_.get_requests;
    obs::Emit(sink_, {.type = obs::EventType::kGetSent,
                      .at = sim_.now(),
                      .trace_time = trace_time,
                      .url = request.url,
                      .site = request.client_id});
  } else {
    ++metrics_.ims_requests;
    if (lease_renewal) ++metrics_.lease_renewal_ims;
    obs::Emit(sink_, {.type = obs::EventType::kImsSent,
                      .at = sim_.now(),
                      .trace_time = trace_time,
                      .url = request.url,
                      .site = request.client_id,
                      .detail = lease_renewal ? 1 : 0});
  }

  metrics_.pcv_items_piggybacked += request.pcv_queries.size();
  const std::uint64_t wire = net::WireSize(request) +
                             core::PcvRequestExtraBytes(request.pcv_queries);
  metrics_.message_bytes += wire;
  pc.pcv_batch = std::exchange(request.pcv_queries, {});

  // Reply timeout: the closed loop must advance even if the server is dead.
  // DeliverReply cancels it, so it fires only while its request is still in
  // flight.
  pc.timeout = sim_.After(config_.request_timeout, [this, &pc, seq] {
    WEBCC_CHECK_MSG(pc.outstanding == seq,
                    "a delivered reply cancels its timeout");
    pc.outstanding = 0;
    pc.pcv_batch.clear();
    ++metrics_.request_timeouts;
    obs::Emit(sink_, {.type = obs::EventType::kRequestTimeout,
                      .at = sim_.now(),
                      .detail = static_cast<std::int64_t>(seq)});
    FinishRequest(pc, config_.request_timeout);
  });

  // In hierarchical mode leaf misses go to the parent proxy, not the server.
  const sim::NodeId upstream =
      config_.hierarchical ? ParentNode() : ServerNode();
  sim_.After(kProxyForwardOverhead,
             [this, &pc, request = std::move(request), seq, trace_time, wire,
              upstream]() mutable {
               net_.Send(pc.node, upstream, wire,
                         [this, request = std::move(request),
                          index = pc.index, seq, trace_time]() mutable {
                           if (config_.hierarchical) {
                             ParentHandle(
                                 {std::move(request), index, seq, trace_time});
                           } else {
                             ServerHandle(request, index, seq, trace_time);
                           }
                         });
             });
}

void Engine::ServerHandle(net::Request& request, int client_index,
                          std::uint64_t seq, Time trace_time) {
  // PCV: the first copy of the in-flight request to arrive takes the batch.
  PseudoClient& pc = clients_[client_index];
  if (pc.outstanding == seq) request.pcv_queries.swap(pc.pcv_batch);
  std::optional<net::Reply> reply =
      site_.Serve(request, trace_time, &psi_last_contact_[client_index]);
  WEBCC_CHECK_MSG(reply.has_value(), "trace referenced an unknown document");

  const Time piggyback_cpu = static_cast<Time>(request.pcv_queries.size() +
                                               reply->psi_modified.size()) *
                             kPiggybackItemCpu;
  const Time ready = ChargeServe(*reply, piggyback_cpu);
  CountReply(*reply, request.client_id, trace_time);
  const std::uint64_t piggyback_bytes =
      core::PcvReplyExtraBytes(reply->pcv_invalid) +
      core::PsiReplyExtraBytes(reply->psi_modified);
  metrics_.message_bytes += net::WireSize(*reply) + piggyback_bytes;
  const std::uint64_t wire_bytes = TransferBytes(*reply) + piggyback_bytes;

  sim_.At(ready, [this, client_index, seq, reply = std::move(*reply),
                  owner = request.client_id, trace_time, wire_bytes,
                  batch = std::move(request.pcv_queries)]() mutable {
    net_.Send(ServerNode(), clients_[client_index].node, wire_bytes,
              [this, client_index, seq, reply = std::move(reply),
               owner = std::move(owner), trace_time,
               batch = std::move(batch)]() mutable {
                // The piggyback applies even to a reply DeliverReply drops
                // as late.
                const core::PiggybackOutcome outcome = core::ApplyPiggyback(
                    *clients_[client_index].cache, *policy_, batch, reply,
                    trace_time);
                metrics_.pcv_invalidated += outcome.pcv_invalidated;
                metrics_.psi_notices += reply.psi_modified.size();
                metrics_.psi_entries_erased += outcome.psi_erased;
                DeliverReply(client_index, seq, std::move(reply),
                             std::move(owner), trace_time);
              });
  });
}

Time Engine::ChargeServe(const net::Reply& reply, Time extra_cpu) {
  const bool transfer = reply.type == net::MessageType::kReply200;
  // Access log write (all approaches log incoming requests); logging is
  // asynchronous w.r.t. the reply.
  server_disk_.utilization().AddWrite();
  server_disk_.Enqueue(kDiskOp);
  Time ready = server_cpu_.Enqueue(
      (transfer ? kRequestCpu200 : kRequestCpu304) + extra_cpu);
  if (transfer) {
    // The file read must complete before the body can be sent.
    server_disk_.utilization().AddRead();
    ready = std::max(ready, server_disk_.Enqueue(kDiskOp));
  }
  return ready;
}

void Engine::CountReply(const net::Reply& reply, std::string_view site,
                        Time trace_time) {
  const bool transfer = reply.type == net::MessageType::kReply200;
  if (transfer) {
    ++metrics_.replies_200;
  } else {
    ++metrics_.replies_304;
  }
  obs::Emit(sink_, {.type = transfer ? obs::EventType::kReply200
                                     : obs::EventType::kReply304,
                    .at = sim_.now(),
                    .trace_time = trace_time,
                    .url = reply.url,
                    .site = site});
}

std::uint64_t Engine::TransferBytes(const net::Reply& reply) const {
  // Documents travel scaled down by the paper's factor of 100: transfer
  // delays use the scaled size, while message_bytes counts the full one.
  const auto scaled_body = static_cast<std::uint64_t>(
      static_cast<double>(reply.body_bytes) / 100.0);
  return net::kControlHeaderBytes + reply.url.size() + scaled_body;
}

void Engine::DeliverReply(int client_index, std::uint64_t seq,
                          net::Reply reply, std::string owner,
                          Time trace_time) {
  PseudoClient& pc = clients_[client_index];
  if (pc.outstanding != seq) return;  // timed out; late reply dropped
  pc.outstanding = 0;
  sim_.Cancel(pc.timeout);

  const bool transfer = reply.type == net::MessageType::kReply200;
  // A 304 certifies the cached copy fresh as of this validation.
  if (!transfer) ++metrics_.validated_hits;
  obs::Emit(sink_, {.type = obs::EventType::kRequestServed,
                    .at = sim_.now(),
                    .trace_time = trace_time,
                    .url = reply.url,
                    .site = owner,
                    .detail = static_cast<std::int64_t>(
                        transfer ? obs::ServeKind::kTransfer
                                 : obs::ServeKind::kValidated)});
  if (transfer) {
    core::CacheTransfer(*pc.cache, *policy_, reply, owner, trace_time);
  } else {
    core::Revalidate(*pc.cache, *policy_, reply, owner, trace_time);
  }
  FinishRequest(pc, sim_.now() - pc.request_start);
}

}  // namespace detail

ReplayMetrics RunReplay(const ReplayConfig& config) {
  detail::Engine engine(config);
  return engine.Run();
}

}  // namespace webcc::replay
