#include "sim/network.h"

#include <cmath>
#include <utility>

#include "util/check.h"

namespace webcc::sim {

void Network::Partition(NodeId a, NodeId b) {
  WEBCC_CHECK(a != b);
  const auto [lo, hi] = Ordered(a, b);
  partitions_.insert({lo, hi});
  obs::Emit(trace_sink_, {.type = obs::EventType::kPartition,
                          .at = sim_.now(),
                          .detail = static_cast<std::int64_t>(lo) * 1000 + hi});
}

void Network::Heal(NodeId a, NodeId b) {
  const auto [lo, hi] = Ordered(a, b);
  if (partitions_.erase({lo, hi}) > 0) {
    obs::Emit(trace_sink_,
              {.type = obs::EventType::kPartitionHeal,
               .at = sim_.now(),
               .detail = static_cast<std::int64_t>(lo) * 1000 + hi});
  }
}

bool Network::IsPartitioned(NodeId a, NodeId b) const {
  return partitions_.count(Ordered(a, b)) != 0;
}

void Network::SetNodeUp(NodeId node, bool up) {
  if (up) {
    down_nodes_.erase(node);
  } else {
    down_nodes_.insert(node);
  }
}

bool Network::IsNodeUp(NodeId node) const {
  return down_nodes_.count(node) == 0;
}

bool Network::Reachable(NodeId from, NodeId to) const {
  return IsNodeUp(from) && IsNodeUp(to) && !IsPartitioned(from, to);
}

Time Network::TransferDelay(std::uint64_t bytes) const {
  const double wire_bytes =
      static_cast<double>(bytes + config_.per_message_overhead_bytes);
  const double serialization_s = wire_bytes * 8.0 / config_.bandwidth_bps;
  return config_.one_way_latency + FromSeconds(serialization_s);
}

void Network::SendReliable(NodeId from, NodeId to, std::uint64_t bytes,
                           DeliverFn on_deliver, ReliableDoneFn done) {
  if (!IsNodeUp(from)) {
    // The sender itself died; its pending sends evaporate with it.
    return;
  }
  if (!IsNodeUp(to)) {
    // Connection refused: surface immediately, no retry. The paper's
    // recovery path (mark-all-questionable at the proxy) covers safety.
    ++messages_dropped_;
    if (done) done(SendResult::kRefused, sim_.now());
    return;
  }
  // Injected loss on a reliable link models a lost TCP segment: the
  // connection is not torn down, the sender just retransmits after the
  // retry interval. No duplication on this path — TCP sequence
  // numbers discard duplicate segments before they reach the application.
  bool segment_lost = false;
  Time extra_delay = 0;
  if (!IsPartitioned(from, to) && injector_ != nullptr) {
    const Perturbation fault = injector_->Perturb(from, to);
    if (fault.drop) {
      RecordInjectedDrop(from, to);
      segment_lost = true;
    } else if (fault.extra_delay > 0) {
      RecordInjectedDelay(from, to, fault.extra_delay);
      extra_delay = fault.extra_delay;
    }
  }
  if (IsPartitioned(from, to) || segment_lost) {
    ++retries_;
    sim_.After(config_.retry_interval,
               [this, from, to, bytes, on_deliver = std::move(on_deliver),
                done = std::move(done)]() mutable {
                 SendReliable(from, to, bytes, std::move(on_deliver),
                              std::move(done));
               });
    return;
  }
  ++messages_delivered_;
  bytes_delivered_ += bytes;
  const Time delivery = sim_.now() + TransferDelay(bytes) + extra_delay;
  sim_.At(delivery, std::move(on_deliver));
  if (done) done(SendResult::kDelivered, delivery);
}

void Network::RecordInjectedDrop(NodeId from, NodeId to) {
  ++injected_drops_;
  obs::Emit(trace_sink_,
            {.type = obs::EventType::kLinkDrop,
             .at = sim_.now(),
             .detail = static_cast<std::int64_t>(from) * 1000 + to});
}

void Network::RecordInjectedDup(NodeId from, NodeId to) {
  ++injected_dups_;
  obs::Emit(trace_sink_,
            {.type = obs::EventType::kLinkDup,
             .at = sim_.now(),
             .detail = static_cast<std::int64_t>(from) * 1000 + to});
}

void Network::RecordInjectedDelay(NodeId from, NodeId to, Time extra) {
  ++injected_delays_;
  (void)from;
  (void)to;
  obs::Emit(trace_sink_, {.type = obs::EventType::kLinkDelay,
                          .at = sim_.now(),
                          .detail = static_cast<std::int64_t>(extra)});
}

void Network::ExportMetrics(obs::MetricsRegistry& registry,
                            std::string_view prefix) const {
  const auto name = [&prefix](std::string_view leaf) {
    std::string full(prefix);
    full += leaf;
    return full;
  };
  registry.SetCounter(name("messages_delivered"), messages_delivered_);
  registry.SetCounter(name("bytes_delivered"), bytes_delivered_);
  registry.SetCounter(name("messages_dropped"), messages_dropped_);
  registry.SetCounter(name("retries"), retries_);
  registry.SetCounter(name("partitions_active"), partitions_.size());
  registry.SetCounter(name("injected_drops"), injected_drops_);
  registry.SetCounter(name("injected_dups"), injected_dups_);
  registry.SetCounter(name("injected_delays"), injected_delays_);
}

}  // namespace webcc::sim
