// Point-to-point network model with partitions, node failures, and
// TCP-style retry.
//
// Models the replay testbed's interconnect: a fixed one-way latency plus a
// bandwidth term per message. Failure injection mirrors the paper's three
// scenarios — a down proxy (connection refused; the proxy revalidates
// everything on recovery), a down server site, and a network partition
// (sender retries periodically until the link heals).
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/time.h"

namespace webcc::sim {

// Dense small integers; the replay assigns one per host (pseudo-clients,
// pseudo-server).
using NodeId = int;

// What a fault injector may do to one datagram on one directed link.
struct Perturbation {
  bool drop = false;       // lose the message entirely
  bool duplicate = false;  // deliver it twice (second copy one latency later)
  Time extra_delay = 0;    // added to the normal transfer delay
};

// Hook consulted on every best-effort Send and every reliable transmission
// attempt. The network stays ignorant of fault plans and seeds; the fault
// layer (src/fault/) implements this against its own deterministic clock.
// Implementations must be deterministic functions of their own state — the
// network calls Perturb exactly once per transmission attempt, in event
// order, so a seeded RNG behind it replays bit-identically.
class LinkFaultInjector {
 public:
  virtual ~LinkFaultInjector() = default;
  virtual Perturbation Perturb(NodeId from, NodeId to) = 0;
};

struct NetworkConfig {
  // One-way propagation latency between any two distinct nodes. The default
  // approximates the paper's switched 100 Mb/s Ethernet.
  Time one_way_latency = 350 * kMicrosecond;
  // Link bandwidth used for the serialization term of the delivery delay.
  double bandwidth_bps = 100e6;
  // Fixed per-message framing overhead added to the payload (TCP/IP).
  std::uint32_t per_message_overhead_bytes = 40;
  // Interval between retries of a reliable send across a partition.
  Time retry_interval = 5 * kSecond;

  // A wide-area profile for the Section 5.2 "on the real Internet"
  // extrapolation: ~35 ms one-way, 1.5 Mb/s.
  static NetworkConfig Lan() { return NetworkConfig{}; }
  static NetworkConfig Wan() {
    NetworkConfig config;
    config.one_way_latency = 35 * kMillisecond;
    config.bandwidth_bps = 1.5e6;
    return config;
  }
};

class Network {
 public:
  // Outcome reported to SendReliable's completion callback.
  enum class SendResult {
    kDelivered,  // arrived at the destination
    kRefused,    // destination node down: TCP connect refused
  };

  // Delivery handlers are scheduled on the simulator queue; sim::Task keeps
  // small captures inline. The done callback is invoked at the sender (not
  // scheduled), so it stays a std::function.
  using DeliverFn = Simulator::Action;
  using ReliableDoneFn = std::function<void(SendResult, Time /*done_at*/)>;

  Network(Simulator& sim, NetworkConfig config)
      : sim_(sim), config_(config) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- failure injection -------------------------------------------------
  void Partition(NodeId a, NodeId b);
  void Heal(NodeId a, NodeId b);
  bool IsPartitioned(NodeId a, NodeId b) const;
  // True while any link is partitioned.
  bool HasPartitions() const { return !partitions_.empty(); }

  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;

  // True when a message sent now from `from` would reach `to`.
  bool Reachable(NodeId from, NodeId to) const;

  // --- sending -----------------------------------------------------------

  // Serialization + propagation delay for a payload of `bytes`.
  Time TransferDelay(std::uint64_t bytes) const;

  // Best-effort datagram: delivered after TransferDelay unless the pair is
  // unreachable at send time, in which case it is dropped. Returns whether
  // the message was sent. `on_deliver` runs at the destination.
  //
  // Templated so an installed LinkFaultInjector can duplicate the handler:
  // sim::Task is move-only, so duplication is possible only when the callable
  // itself is copyable (every engine call site passes a copyable lambda).
  // Injected faults on this path model UDP-like loss: a dropped datagram is
  // simply gone (the caller's own timeout machinery notices, if any).
  template <typename F>
  bool Send(NodeId from, NodeId to, std::uint64_t bytes, F on_deliver) {
    if constexpr (requires { static_cast<bool>(on_deliver); }) {
      WEBCC_CHECK_MSG(static_cast<bool>(on_deliver), "null delivery handler");
    }
    if (!Reachable(from, to)) {
      ++messages_dropped_;
      return false;
    }
    Perturbation fault;
    if (injector_ != nullptr) fault = injector_->Perturb(from, to);
    if (fault.drop) {
      RecordInjectedDrop(from, to);
      return false;
    }
    Time delay = TransferDelay(bytes);
    if (fault.extra_delay > 0) {
      RecordInjectedDelay(from, to, fault.extra_delay);
      delay += fault.extra_delay;
    }
    if constexpr (std::is_copy_constructible_v<std::decay_t<F>>) {
      if (fault.duplicate) {
        RecordInjectedDup(from, to);
        ++messages_delivered_;
        bytes_delivered_ += bytes;
        // The duplicate trails the original by one propagation latency —
        // close enough to provoke reordering bugs, far enough to be distinct.
        F copy(on_deliver);
        sim_.After(delay + config_.one_way_latency, std::move(copy));
      }
    }
    ++messages_delivered_;
    bytes_delivered_ += bytes;
    sim_.After(delay, std::move(on_deliver));
    return true;
  }

  // TCP-with-retry, the paper's transport for invalidations. If the
  // destination node is down the connection is refused immediately (the
  // recovering proxy revalidates, so the sender need not persist). If the
  // path is partitioned, or an injected fault loses the segment, the send
  // retries every retry_interval until it gets through, is refused, or the
  // sender dies. `on_deliver` runs at delivery; `done` reports the outcome
  // at the sender.
  void SendReliable(NodeId from, NodeId to, std::uint64_t bytes,
                    DeliverFn on_deliver, ReliableDoneFn done);

  // --- fault injection hook ----------------------------------------------
  // Installs (or clears, with nullptr) the per-link fault injector. Not
  // owned; must outlive the network or be cleared first.
  void set_fault_injector(LinkFaultInjector* injector) { injector_ = injector; }

  // --- accounting --------------------------------------------------------
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t injected_drops() const { return injected_drops_; }
  std::uint64_t injected_dups() const { return injected_dups_; }
  std::uint64_t injected_delays() const { return injected_delays_; }

  // Optional tracing: Partition/Heal emit kPartition/kPartitionHeal stamped
  // with the simulator clock (detail = the ordered node pair, a*1000+b).
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }

  // Snapshots the delivery counters into `registry` under `prefix`.
  void ExportMetrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const;

 private:
  static std::pair<NodeId, NodeId> Ordered(NodeId a, NodeId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  // Counter bumps + kLinkDrop/kLinkDelay/kLinkDup trace emission, shared by
  // the header-template Send and the reliable path.
  void RecordInjectedDrop(NodeId from, NodeId to);
  void RecordInjectedDup(NodeId from, NodeId to);
  void RecordInjectedDelay(NodeId from, NodeId to, Time extra);

  Simulator& sim_;
  NetworkConfig config_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  std::set<NodeId> down_nodes_;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t injected_drops_ = 0;
  std::uint64_t injected_dups_ = 0;
  std::uint64_t injected_delays_ = 0;
  LinkFaultInjector* injector_ = nullptr;
  obs::TraceSink* trace_sink_ = nullptr;
};

}  // namespace webcc::sim
