// Unit tests for sim/: event ordering and cancellation, FIFO stations, the
// network model.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/station.h"
#include "util/rng.h"

namespace webcc::sim {
namespace {

// --- Simulator ----------------------------------------------------------------

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.At(100, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, AfterIsRelativeToNow) {
  Simulator sim;
  Time fired_at = -1;
  sim.At(50, [&] {
    sim.After(25, [&] { fired_at = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(fired_at, 75);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.After(1, chain);
  };
  sim.After(1, chain);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  sim.At(20, [&] { ++fired; });
  sim.At(30, [&] { ++fired; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.At(1, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.At(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.executed(), 7u);
}

// --- Simulator: cancellation ----------------------------------------------------

TEST(Simulator, CancelledEventNeverRuns) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  const EventId id = sim.At(20, [&] { fired += 100; });
  sim.At(30, [&] { ++fired; });
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_EQ(sim.pending(), 2u);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, CancelDestroysTheAction) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  const EventId id = sim.At(10, [token] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, CancelAfterTheEventRanIsANoOp) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.At(10, [&] { ++fired; });
  sim.At(20, [&] { ++fired; });
  ASSERT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SecondCancelIsANoOp) {
  Simulator sim;
  const EventId id = sim.At(10, [] {});
  sim.At(20, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, StaleIdLeavesTheEventThatReusedItsSlot) {
  Simulator sim;
  const EventId ran = sim.At(10, [] {});
  const EventId cancelled = sim.At(10, [] {});
  ASSERT_TRUE(sim.Step());
  ASSERT_TRUE(sim.Cancel(cancelled));
  int fired = 0;
  const EventId a = sim.At(20, [&] { ++fired; });
  const EventId b = sim.At(20, [&] { ++fired; });
  // Both freed slots were reused, under new sequence numbers.
  EXPECT_EQ(a.slot, cancelled.slot);
  EXPECT_EQ(b.slot, ran.slot);
  EXPECT_FALSE(sim.Cancel(ran));
  EXPECT_FALSE(sim.Cancel(cancelled));
  EXPECT_EQ(sim.pending(), 2u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, DefaultEventIdNamesNoEvent) {
  Simulator sim;
  sim.At(10, [] {});
  EXPECT_FALSE(sim.Cancel(EventId{}));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ActionCanCancelAnEventDueAtTheSameInstant) {
  Simulator sim;
  std::vector<int> order;
  EventId victim;
  sim.At(10, [&] {
    order.push_back(1);
    EXPECT_TRUE(sim.Cancel(victim));
  });
  victim = sim.At(10, [&] { order.push_back(2); });
  sim.At(10, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, RunUntilSkipsACancelledHead) {
  Simulator sim;
  int fired = 0;
  const EventId head = sim.At(10, [&] { fired += 100; });
  sim.At(20, [&] { ++fired; });
  ASSERT_TRUE(sim.Cancel(head));
  sim.RunUntil(15);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 15);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, PeakPendingCountsLiveEventsOnly) {
  Simulator sim;
  for (int i = 0; i < 100; ++i) sim.Cancel(sim.At(1000, [] {}));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.peak_pending(), 1u);
}

// A seeded random mix of At/After/Cancel/Step/RunUntil calls, some made from
// inside running actions, checked against a reference model: the set of
// pending (time, seq) keys. Every executed event must be the model's
// earliest, and now()/pending() must agree after every call.
class SimulatorModelRun {
 public:
  explicit SimulatorModelRun(std::uint64_t seed) : rng_(seed) {}

  void Run(int calls) {
    for (int i = 0; i < calls && !::testing::Test::HasFailure(); ++i) {
      // Alternate phases that grow the queue to a few hundred events and
      // drain it.
      const std::uint64_t schedule_below = (i / 10000) % 2 == 0 ? 50 : 30;
      const std::uint64_t roll = rng_.NextBelow(100);
      if (roll < schedule_below) {
        Schedule();
      } else if (roll < schedule_below + 20) {
        CancelRandom();
      } else if (roll < 99) {
        Step();
      } else {
        RunUntil(sim_.now() + static_cast<Time>(rng_.NextBelow(4)));
      }
      Agree();
    }
    while (!pending_.empty() && !::testing::Test::HasFailure()) Step();
    EXPECT_FALSE(sim_.Step());
    EXPECT_EQ(sim_.executed(), executed_);
  }

  std::uint64_t executed() const { return executed_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::size_t peak() const { return sim_.peak_pending(); }

 private:
  // A narrow time range, so many events tie and the seq order decides.
  void Schedule() {
    const std::size_t index = ids_.size();
    const Time delay = static_cast<Time>(rng_.NextBelow(40));
    Simulator::Action action = [this, index] { Fire(index); };
    const EventId id = rng_.NextBool(0.5)
                           ? sim_.At(sim_.now() + delay, std::move(action))
                           : sim_.After(delay, std::move(action));
    ids_.push_back(id);
    times_.push_back(sim_.now() + delay);
    pending_.insert({times_.back(), id.seq});
  }

  // Mostly one of the last 64 ids issued, often still pending; otherwise
  // any id ever issued, mostly run, cancelled or stale.
  void CancelRandom() {
    if (ids_.empty()) return;
    const std::size_t recent = std::min<std::size_t>(ids_.size(), 64);
    const std::size_t index =
        rng_.NextBool(0.75) ? ids_.size() - 1 - rng_.NextBelow(recent)
                            : rng_.NextBelow(ids_.size());
    const bool was_pending =
        pending_.erase({times_[index], ids_[index].seq}) == 1;
    EXPECT_EQ(sim_.Cancel(ids_[index]), was_pending);
    if (was_pending) ++cancelled_;
  }

  void Step() {
    const bool expect_event = !pending_.empty();
    const Time expect_now = expect_event ? pending_.begin()->first : 0;
    EXPECT_EQ(sim_.Step(), expect_event);
    if (expect_event) {
      EXPECT_EQ(sim_.now(), expect_now);
    }
  }

  void RunUntil(Time t) {
    sim_.RunUntil(t);
    EXPECT_TRUE(pending_.empty() || pending_.begin()->first > t);
    EXPECT_EQ(sim_.now(), t);
  }

  void Fire(std::size_t index) {
    ASSERT_FALSE(pending_.empty());
    const std::pair<Time, std::uint64_t> key{times_[index], ids_[index].seq};
    EXPECT_EQ(*pending_.begin(), key);
    EXPECT_EQ(sim_.now(), key.first);
    pending_.erase(pending_.begin());
    ++executed_;
    Agree();
    const std::uint64_t roll = rng_.NextBelow(8);
    if (roll < 2) {
      Schedule();
    } else if (roll == 2) {
      CancelRandom();
    }
  }

  void Agree() { EXPECT_EQ(sim_.pending(), pending_.size()); }

  Simulator sim_;
  util::Rng rng_;
  std::set<std::pair<Time, std::uint64_t>> pending_;
  std::vector<EventId> ids_;  // every id issued, by schedule order
  std::vector<Time> times_;   // each id's due time
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

TEST(Simulator, MatchesAReferenceModelUnderRandomCancellation) {
  SimulatorModelRun run(/*seed=*/42);
  run.Run(100000);
  // Both paths were exercised at volume, on a queue deep enough to sift.
  EXPECT_GT(run.executed(), 20000u);
  EXPECT_GT(run.cancelled(), 4000u);
  EXPECT_GT(run.peak(), 100u);
}

// --- FifoStation -----------------------------------------------------------------

TEST(FifoStation, SingleJobCompletesAfterCost) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  Time done = -1;
  station.Enqueue(100, [&] { done = sim.now(); });
  sim.Run();
  EXPECT_EQ(done, 100);
}

TEST(FifoStation, JobsQueueFifo) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  std::vector<Time> completions;
  for (int i = 0; i < 3; ++i) {
    station.Enqueue(10, [&] { completions.push_back(sim.now()); });
  }
  sim.Run();
  EXPECT_EQ(completions, (std::vector<Time>{10, 20, 30}));
}

TEST(FifoStation, ReturnsCompletionTime) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  EXPECT_EQ(station.Enqueue(5), 5);
  EXPECT_EQ(station.Enqueue(5), 10);
  EXPECT_EQ(station.busy_until(), 10);
}

TEST(FifoStation, IdleGapThenNewJob) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  station.Enqueue(10);
  sim.Run();  // completes at 10
  Time done = -1;
  sim.At(50, [&] { station.Enqueue(5, [&] { done = sim.now(); }); });
  sim.Run();
  EXPECT_EQ(done, 55);  // starts at 50, not queued behind the old job
}

TEST(FifoStation, AccumulatesUtilization) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  station.Enqueue(30);
  station.Enqueue(30);
  sim.Run();
  EXPECT_EQ(station.utilization().busy_time(), 60);
  EXPECT_DOUBLE_EQ(station.utilization().BusyFraction(120), 0.5);
}

TEST(FifoStation, ZeroCostJobRunsImmediately) {
  Simulator sim;
  FifoStation station(sim, "cpu");
  Time done = -1;
  station.Enqueue(0, [&] { done = sim.now(); });
  sim.Run();
  EXPECT_EQ(done, 0);
}

// --- Network ----------------------------------------------------------------------

NetworkConfig FastConfig() {
  NetworkConfig config;
  config.one_way_latency = 1000;       // 1 ms
  config.bandwidth_bps = 8e6;          // 1 byte/us
  config.per_message_overhead_bytes = 0;
  config.retry_interval = 100 * kMillisecond;
  return config;
}

TEST(Network, TransferDelayIncludesSerializationTerm) {
  Simulator sim;
  Network net(sim, FastConfig());
  EXPECT_EQ(net.TransferDelay(0), 1000);
  EXPECT_EQ(net.TransferDelay(1000), 2000);  // 1000 bytes at 1 byte/us
}

TEST(Network, OverheadBytesCounted) {
  Simulator sim;
  NetworkConfig config = FastConfig();
  config.per_message_overhead_bytes = 40;
  Network net(sim, config);
  EXPECT_EQ(net.TransferDelay(0), 1040);
}

TEST(Network, DeliversAfterDelay) {
  Simulator sim;
  Network net(sim, FastConfig());
  Time delivered = -1;
  EXPECT_TRUE(net.Send(0, 1, 500, [&] { delivered = sim.now(); }));
  sim.Run();
  EXPECT_EQ(delivered, 1500);
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.bytes_delivered(), 500u);
}

TEST(Network, PartitionDropsDatagrams) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  bool delivered = false;
  EXPECT_FALSE(net.Send(0, 1, 10, [&] { delivered = true; }));
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, PartitionIsSymmetricAndHealable) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(3, 1);
  EXPECT_TRUE(net.IsPartitioned(1, 3));
  EXPECT_FALSE(net.Reachable(1, 3));
  EXPECT_FALSE(net.Reachable(3, 1));
  net.Heal(1, 3);
  EXPECT_TRUE(net.Reachable(3, 1));
}

TEST(Network, DownNodeUnreachableBothWays) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.SetNodeUp(2, false);
  EXPECT_FALSE(net.Reachable(0, 2));
  EXPECT_FALSE(net.Reachable(2, 0));
  EXPECT_TRUE(net.Reachable(0, 1));
  net.SetNodeUp(2, true);
  EXPECT_TRUE(net.Reachable(0, 2));
}

TEST(Network, ReliableSendDeliversImmediatelyWhenHealthy) {
  Simulator sim;
  Network net(sim, FastConfig());
  Network::SendResult result{};
  Time delivered = -1;
  net.SendReliable(
      0, 1, 100, [&] { delivered = sim.now(); },
      [&](Network::SendResult r, Time) { result = r; });
  sim.Run();
  EXPECT_EQ(result, Network::SendResult::kDelivered);
  EXPECT_EQ(delivered, 1100);
}

TEST(Network, ReliableSendRefusedByDownNode) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.SetNodeUp(1, false);
  bool delivered = false;
  Network::SendResult result{};
  net.SendReliable(
      0, 1, 100, [&] { delivered = true; },
      [&](Network::SendResult r, Time) { result = r; });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(result, Network::SendResult::kRefused);
}

TEST(Network, ReliableSendRetriesAcrossPartitionUntilHeal) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  Time delivered = -1;
  net.SendReliable(0, 1, 0, [&] { delivered = sim.now(); }, nullptr);
  // Heal after 250 ms; with a 100 ms retry interval the send succeeds on
  // the third retry at 300 ms.
  sim.At(250 * kMillisecond, [&] { net.Heal(0, 1); });
  sim.Run();
  EXPECT_EQ(delivered, 300 * kMillisecond + 1000);
  EXPECT_GE(net.retries(), 3u);
}

TEST(Network, ReliableSendOutlastsAnyPartition) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  Time delivered = -1;
  int done_calls = 0;
  Network::SendResult result{};
  Time done_at = -1;
  net.SendReliable(
      0, 1, 0, [&] { delivered = sim.now(); },
      [&](Network::SendResult r, Time at) {
        ++done_calls;
        result = r;
        done_at = at;
      });
  // A reliable send has no retry budget: it retries every 100 ms for a
  // full minute and gets through on the first retry after the heal.
  sim.At(60 * kSecond - 50 * kMillisecond, [&] { net.Heal(0, 1); });
  sim.Run();
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(result, Network::SendResult::kDelivered);
  EXPECT_EQ(delivered, 60 * kSecond + 1000);
  EXPECT_EQ(done_at, delivered);
  EXPECT_EQ(net.retries(), 600u);
}

TEST(Network, ReliableSendRefusedWhenReceiverDiesWhilePartitioned) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  bool delivered = false;
  int done_calls = 0;
  Network::SendResult result{};
  Time done_at = -1;
  net.SendReliable(
      0, 1, 0, [&] { delivered = true; },
      [&](Network::SendResult r, Time at) {
        ++done_calls;
        result = r;
        done_at = at;
      });
  // The receiver dies at 150 ms; the retry at 200 ms is refused, the only
  // way besides delivery that a reliable send ends while its sender lives.
  sim.At(150 * kMillisecond, [&] { net.SetNodeUp(1, false); });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(result, Network::SendResult::kRefused);
  EXPECT_EQ(done_at, 200 * kMillisecond);
}

TEST(Network, SenderDeathSilencesPendingRetries) {
  Simulator sim;
  Network net(sim, FastConfig());
  net.Partition(0, 1);
  bool delivered = false;
  bool done_called = false;
  net.SendReliable(
      0, 1, 0, [&] { delivered = true; },
      [&](Network::SendResult, Time) { done_called = true; });
  sim.At(150 * kMillisecond, [&] {
    net.SetNodeUp(0, false);
    net.Heal(0, 1);
  });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_FALSE(done_called);
}

TEST(Network, WanProfileSlowerThanLan) {
  Simulator sim;
  Network lan(sim, NetworkConfig::Lan());
  Network wan(sim, NetworkConfig::Wan());
  EXPECT_GT(wan.TransferDelay(1000), lan.TransferDelay(1000));
}

}  // namespace
}  // namespace webcc::sim
