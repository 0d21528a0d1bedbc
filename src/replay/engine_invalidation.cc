// Modifier process and server-driven invalidation fan-out: the write path
// of the invalidation protocol (Section 3.3), its serialized/decoupled,
// batched and multicast send variants (Section 5.3), and the crash-recovery
// broadcast (Section 4), all carried by one push path. Whether a write owes a fan-out at all is the kernel's
// OnWrite decision; everything here is mechanism.
#include <algorithm>

#include "http/cache_key.h"
#include "obs/event.h"
#include "replay/engine_impl.h"

namespace webcc::replay::detail {
namespace {

// A single INVALIDATE as a one-URL frame, an INVSRV as a frame with one
// empty URL. `mod_id` is the write it resolves; 0 for a recovery notice.
Push PushOf(const net::Invalidation& invalidation, std::uint64_t mod_id) {
  return Push{
      .site = invalidation.client_id,
      .urls = {invalidation.url},
      .write_ids = {{mod_id}},
      .server_notice =
          invalidation.type == net::MessageType::kInvalidateServer,
      .recovery = invalidation.recovery};
}

}  // namespace

void Engine::ModifierStep() {
  if (mod_cursor_ >= mod_window_end_) {
    ParticipantDone();
    return;
  }
  const trace::ModEvent& event = modifications_[mod_cursor_++];
  const std::string& url = DocPath(event.doc);

  // The touch registers in the file system immediately; for polling, this is
  // the point at which the write is complete. For invalidation the write is
  // in progress from this instant until the fan-out is delivered.
  site_.Touch(url, event.at);
  mod_times_[url].push_back(event.at);
  ++metrics_.modifications_applied;
  obs::Emit(sink_, {.type = obs::EventType::kModification,
                    .at = sim_.now(),
                    .trace_time = event.at,
                    .url = url});
  const bool fan_out = policy_->OnWrite().fan_out_invalidations;
  if (fan_out && !server_down_) ++writes_in_progress_[url];

  if (server_down_) {
    // The accelerator is dead: the modification goes unnoticed until the
    // recovery broadcast. The touch itself persists (the file system
    // survives the crash).
    sim_.After(0, [this] { ModifierStep(); });
    return;
  }

  // The check-in utility notifies the accelerator; detection happens when
  // the notify is processed.
  server_cpu_.Enqueue(kNotifyCpu, [this, fan_out, url, at = event.at] {
    if (fan_out) {
      net::Notify notify{url};
      FanOutInvalidations(site_.accelerator().HandleNotify(notify, at), url,
                          at, [this] { ModifierStep(); });
    } else {
      ModifierStep();
    }
  });
}

void Engine::FanOutInvalidations(std::vector<net::Invalidation> invalidations,
                                 const std::string& url, Time trace_time,
                                 std::function<void()> on_complete) {
  WEBCC_CHECK(static_cast<bool>(on_complete));
  if (invalidations.empty()) {
    // No site holds a live-leased copy: the write is trivially complete.
    ++metrics_.write_completions;
    metrics_.write_completion_wall_ms.Record(0.0);
    metrics_.write_blocked_trace_ms.Record(0.0);
    obs::Emit(sink_,
              {.type = obs::EventType::kWriteComplete,
               .at = sim_.now(),
               .trace_time = trace_time,
               .url = url,
               .detail = static_cast<std::int64_t>(
                   obs::WriteCompleteKind::kNoTargets)});
    CompleteWrite(url);
    sim_.After(0, std::move(on_complete));
    return;
  }

  const std::uint64_t mod_id = next_mod_id_++;
  PendingMod& pending = pending_mod_targets_[mod_id];
  pending.delivery.set_url(url);
  pending.started_trace = trace_time;
  pending.started_wall = sim_.now();
  for (const net::Invalidation& invalidation : invalidations) {
    pending.delivery.AddTarget(invalidation.client_id,
                               invalidation.lease_until);
  }
  pending.first_pending = static_cast<int>(invalidations.size());
  if (config_.serialized_invalidation) {
    // The check-in blocks until the fan-out lands (the paper's prototype);
    // the modifier resumes only once this write has completed.
    pending.on_complete = std::move(on_complete);
  }

  // All of one modification's invalidations carry the same URL, so they
  // route to one shard: its sender in decoupled mode, the shared server
  // CPU when serialized (the paper's prototype, shard-count invariant).
  const std::uint32_t shard = site_.accelerator().ShardOf(url);
  sim::FifoStation& sender = config_.serialized_invalidation
                                 ? server_cpu_
                                 : *inval_senders_[shard];
  const Time fanout_start = sim_.now();
  Time last_send_done = fanout_start;
  if (config_.multicast_invalidation) {
    // One group send regardless of list length: one CPU charge, one
    // message's bytes; the network fans the copies out.
    ++metrics_.multicast_sends;
    metrics_.invalidations_sent += invalidations.size();
    metrics_.message_bytes += net::WireSize(invalidations.front());
    last_send_done = sender.Enqueue(
        kInvalidationSendCpu,
        [this, invalidations = std::move(invalidations), mod_id] {
          for (const net::Invalidation& invalidation : invalidations) {
            SendPush(PushOf(invalidation, mod_id),
                     net::WireSize(invalidation));
          }
        });
    metrics_.invalidation_time_ms.Record(
        ToMillis(last_send_done - fanout_start));
  } else if (BatchingEnabled()) {
    // Queue into the shard's outbox; the armed drain packs everything
    // pending per site into one INVB frame after the batch window. Wire
    // bytes are charged at drain time (per frame, the batching win);
    // batch_flush_ms replaces invalidation_time_ms as the push-delay stat.
    for (const net::Invalidation& invalidation : invalidations) {
      ++metrics_.invalidations_sent;
      if (outboxes_[shard].Add(invalidation.client_id, url, mod_id,
                               fanout_start)) {
        ++metrics_.invalidations_coalesced;
      }
    }
    ScheduleOutboxDrain(shard, config_.invalidation_batch_window);
  } else {
    for (const net::Invalidation& invalidation : invalidations) {
      ++metrics_.invalidations_sent;
      const std::uint64_t wire = net::WireSize(invalidation);
      metrics_.message_bytes += wire;
      last_send_done = sender.Enqueue(
          kInvalidationSendCpu,
          [this, push = PushOf(invalidation, mod_id), wire]() mutable {
            SendPush(std::move(push), wire);
          });
    }
    metrics_.invalidation_time_ms.Record(
        ToMillis(last_send_done - fanout_start));
  }
  if (!config_.serialized_invalidation) sim_.After(0, std::move(on_complete));
}

void Engine::ScheduleOutboxDrain(std::uint32_t shard, Time delay) {
  if (drain_scheduled_[shard]) return;
  drain_scheduled_[shard] = 1;
  sim_.After(delay, [this, shard] {
    drain_scheduled_[shard] = 0;
    DrainOutbox(shard);
  });
}

void Engine::DrainOutbox(std::uint32_t shard) {
  core::InvalidationOutbox& outbox = outboxes_[shard];
  if (outbox.empty()) return;
  // A partitioned-but-alive site is held so its entries keep coalescing
  // until the link heals — the dup-write guarantee: two writes during the
  // partition become one frame after it. A down site drains normally; the
  // refused send resolves its write targets as dead. With no partition
  // open every site is ready, and no target is resolved here.
  std::function<bool(const std::string&)> ready;
  if (net_.HasPartitions()) {
    ready = [this](const std::string& site) {
      const sim::NodeId target = clients_[PseudoOf(site)].node;
      return !(!net_.Reachable(ServerNode(), target) &&
               net_.IsNodeUp(target) && net_.IsNodeUp(ServerNode()));
    };
  }
  std::vector<core::InvalidationOutbox::Batch> batches = outbox.Drain(ready);
  const Time now = sim_.now();
  for (core::InvalidationOutbox::Batch& batch : batches) {
    net::BatchInvalidation frame{std::move(batch.site), std::move(batch.urls)};
    const std::uint64_t wire = net::WireSize(frame);
    ++metrics_.invalidation_frames_sent;
    metrics_.message_bytes += wire;
    metrics_.batch_flush_ms.Record(ToMillis(now - batch.oldest_queued));
    Push push{.site = std::move(frame.client_id),
              .urls = std::move(frame.urls),
              .write_ids = std::move(batch.write_ids)};
    inval_senders_[shard]->Enqueue(
        kInvalidationSendCpu, [this, push = std::move(push), wire]() mutable {
          SendPush(std::move(push), wire);
        });
  }
  if (!outbox.empty()) {
    // Only held (partitioned) sites remain: poll again a window from now.
    ScheduleOutboxDrain(shard, config_.invalidation_batch_window);
  }
}

void Engine::SendPush(Push push, std::uint64_t wire) {
  const bool to_parent = config_.hierarchical && push.site == "parent";
  // The target is resolved once here; delivery reuses the index.
  const int index = to_parent ? -1 : PseudoOf(push.site);
  const sim::NodeId target = to_parent ? ParentNode() : clients_[index].node;
  const auto frame = std::make_shared<const Push>(std::move(push));
  // The blocking check-in waits on each write's first attempt only.
  const auto release_gate = [this, frame] {
    for (const std::vector<std::uint64_t>& ids : frame->write_ids) {
      for (const std::uint64_t mod_id : ids) ResolveFirstAttempt(mod_id);
    }
  };

  // A send that hits a partition is queued for periodic background retry;
  // the blocking check-in does not wait for it. A reachable target gates
  // the check-in until the message actually arrives (a successful TCP send
  // means the peer acknowledged the bytes).
  bool gate_released = false;
  if (!net_.Reachable(ServerNode(), target) && net_.IsNodeUp(target) &&
      net_.IsNodeUp(ServerNode())) {
    gate_released = true;
    release_gate();
  }

  // TCP with periodic retry across partitions (Section 4's failure
  // handling); a down proxy refuses the connection and is dropped — its
  // recovery path revalidates everything.
  net_.SendReliable(
      ServerNode(), target, wire,
      [this, frame, release_gate, gate_released, index, wire] {
        if (!gate_released) release_gate();
        if (index < 0) {
          ParentDeliverPush(*frame, wire);
        } else {
          DeliverPush(*frame, index);
        }
      },
      [this, frame, release_gate, gate_released](
          sim::Network::SendResult result, Time done_at) {
        if (result == sim::Network::SendResult::kDelivered) return;
        if (!gate_released) release_gate();
        RefusePush(*frame, done_at);
      });
}

void Engine::DeliverPush(const Push& push, int client_index) {
  if (push.server_notice) {
    // Server-address invalidation: every entry this real client holds from
    // that server becomes questionable.
    clients_[client_index].cache->MarkQuestionableWhere(
        [&push](const http::CacheEntry& entry) {
          return entry.owner == push.site;
        });
  } else {
    for (std::size_t i = 0; i < push.urls.size(); ++i) {
      // Deleting (rather than marking) frees cache space for fresh
      // documents — the cache-utilization benefit the paper credits
      // invalidation with.
      clients_[client_index].cache->Erase(
          http::ComposeCacheKey(push.urls[i], push.site));
      ++metrics_.invalidations_delivered;
      obs::Emit(sink_, {.type = obs::EventType::kInvalidateDelivered,
                        .at = sim_.now(),
                        .url = push.urls[i],
                        .site = push.site});
      // A coalesced entry acks every write it absorbed — the one-frame-on-
      // heal guarantee for a site partitioned through multiple writes.
      for (const std::uint64_t mod_id : push.write_ids[i]) {
        ResolveWriteTarget(mod_id, push.site, /*dead=*/false);
      }
    }
  }
  // Recovery notices gate the write-gap, not a delivery machine.
  if (push.recovery) FinishRecoveryNotice();
}

void Engine::RefusePush(const Push& push, Time done_at) {
  for (std::size_t i = 0; i < push.urls.size(); ++i) {
    ++metrics_.invalidations_refused;
    obs::Emit(sink_, {.type = obs::EventType::kInvalidateRefused,
                      .at = done_at,
                      .url = push.urls[i],
                      .site = push.site});
    // A refused target's proxy is down: its cache revalidates everything
    // on restart, so the site counts as resolved-dead.
    for (const std::uint64_t mod_id : push.write_ids[i]) {
      ResolveWriteTarget(mod_id, push.site, /*dead=*/true);
    }
  }
  if (push.recovery) FinishRecoveryNotice();
}

void Engine::FinishRecoveryNotice() {
  if (recovery_notices_pending_ > 0 && --recovery_notices_pending_ == 0) {
    // Every ever-seen site has been told (or is dead and will revalidate on
    // its own recovery): the downtime writes are as complete as they get.
    write_gap_active_ = false;
  }
}

void Engine::ResolveFirstAttempt(std::uint64_t mod_id) {
  const auto it = pending_mod_targets_.find(mod_id);
  if (it == pending_mod_targets_.end()) return;
  if (--it->second.first_pending > 0) return;
  std::function<void()> on_complete = std::move(it->second.on_complete);
  it->second.on_complete = nullptr;
  if (it->second.delivery.complete()) pending_mod_targets_.erase(it);
  if (on_complete) on_complete();
}

void Engine::FinishWriteDelivery(PendingMod& pending) {
  const core::WriteDelivery& delivery = pending.delivery;
  WEBCC_DCHECK(delivery.complete());
  ++metrics_.write_completions;
  obs::WriteCompleteKind kind = obs::WriteCompleteKind::kAllAcked;
  // Every enumerator spelled out, so -Wswitch-enum flags any future
  // Completion state this mapping forgets. kPending is unreachable: the
  // DCHECK above guarantees the delivery completed.
  switch (delivery.completion()) {
    case core::WriteDelivery::Completion::kLeasesExpired:
      kind = obs::WriteCompleteKind::kLeasesExpired;
      ++metrics_.write_lease_expired_completions;
      break;
    case core::WriteDelivery::Completion::kNoTargets:
      kind = obs::WriteCompleteKind::kNoTargets;
      break;
    case core::WriteDelivery::Completion::kPending:
    case core::WriteDelivery::Completion::kAllAcked:
      break;
  }
  metrics_.write_completion_wall_ms.Record(
      ToMillis(sim_.now() - pending.started_wall));
  // Trace-time span the write stayed incomplete, lock-step granular: the
  // current interval's start is the best trace-order stamp for "now". The
  // Section 6 bound says this never exceeds lease duration (+ one interval
  // of lock-step rounding) for lease-augmented invalidation.
  metrics_.write_blocked_trace_ms.Record(ToMillis(
      std::max<Time>(0, CurrentWindowStart() - pending.started_trace)));
  obs::Emit(sink_, {.type = obs::EventType::kWriteComplete,
                    .at = sim_.now(),
                    .trace_time = pending.started_trace,
                    .url = delivery.url(),
                    .detail = static_cast<std::int64_t>(kind)});
  CompleteWrite(delivery.url());
}

void Engine::ResolveWriteTarget(std::uint64_t mod_id, std::string_view site,
                                bool dead) {
  const auto it = pending_mod_targets_.find(mod_id);
  if (it == pending_mod_targets_.end()) return;
  core::WriteDelivery& delivery = it->second.delivery;
  const bool resolved_all =
      dead ? delivery.MarkDead(site) : delivery.Ack(site);
  if (!resolved_all) return;
  FinishWriteDelivery(it->second);
  if (it->second.first_pending <= 0) pending_mod_targets_.erase(it);
}

void Engine::SweepExpiredWriteTargets(Time trace_now) {
  for (auto it = pending_mod_targets_.begin();
       it != pending_mod_targets_.end();) {
    PendingMod& pending = it->second;
    if (!pending.delivery.complete() &&
        pending.delivery.ExpireLeases(trace_now)) {
      FinishWriteDelivery(pending);
    }
    // A completed delivery lingers only while the modifier gate still
    // waits on unresolved first attempts.
    if (pending.delivery.complete() && pending.first_pending <= 0) {
      it = pending_mod_targets_.erase(it);
    } else {
      ++it;
    }
  }
}

void Engine::CompleteWrite(const std::string& url) {
  const auto it = writes_in_progress_.find(url);
  if (it != writes_in_progress_.end() && --it->second <= 0) {
    writes_in_progress_.erase(it);
  }
}

void Engine::ServerRecover(Time trace_time) {
  std::vector<net::Invalidation> notices;
  if (site_.accelerator().journal_enabled()) {
    // Write-ahead journal survives the crash: rebuild the site lists from
    // it and send *targeted* invalidations only for documents that changed
    // during the downtime. A damaged journal falls back to the blanket
    // INVSRV broadcast inside RecoverFromJournal. The restart fires at the
    // start of the lock-step window that covers it, before that window's
    // earlier writes, so leases are restored as of the window start: a
    // lease those writes still need must survive the rebuild.
    core::ShardedAccelerator::RecoveryOutcome outcome =
        site_.accelerator().RecoverFromJournal(CurrentWindowStart());
    ++metrics_.journal_rebuilds;
    if (outcome.journal_damaged) ++metrics_.journal_damaged_recoveries;
    obs::Emit(sink_, {.type = obs::EventType::kJournalRebuild,
                      .at = sim_.now(),
                      .trace_time = trace_time,
                      .site = "server",
                      .detail = outcome.journal_damaged ? 1 : 0});
    notices = std::move(outcome.invalidations);
  } else {
    notices = site_.accelerator().Recover();
  }
  recovery_notices_pending_ = static_cast<int>(notices.size());
  if (notices.empty()) write_gap_active_ = false;
  // Each notice is a one-URL frame on the push path; in decoupled mode a
  // targeted invalidation goes out on its URL's shard sender, INVSRV
  // broadcasts on shard 0.
  for (const net::Invalidation& notice : notices) {
    const bool targeted = notice.type == net::MessageType::kInvalidateUrl;
    if (targeted) {
      ++metrics_.recovery_invalidations_sent;
    } else {
      ++metrics_.invsrv_sent;
    }
    const std::uint64_t wire = net::WireSize(notice);
    metrics_.message_bytes += wire;
    sim::FifoStation& sender =
        config_.serialized_invalidation
            ? server_cpu_
            : *inval_senders_[targeted ? site_.accelerator().ShardOf(notice.url)
                                       : 0];
    sender.Enqueue(kInvalidationSendCpu,
                   [this, push = PushOf(notice, 0), wire]() mutable {
                     SendPush(std::move(push), wire);
                   });
  }
}

}  // namespace webcc::replay::detail
