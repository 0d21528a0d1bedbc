// Single-threaded discrete-event simulator.
//
// Everything in a replay — request arrivals, network deliveries, station
// completions, the lock-step time coordinator — is an event on one queue.
// Events at equal timestamps run in scheduling order (a monotone sequence
// number breaks ties), which together with seeded RNGs makes whole replays
// deterministic.
//
// Layout: each pending event's action (a sim::Task, inline storage for
// small captures, so scheduling the common event allocates nothing) lives
// in a slot of a free-listed slab, and the queue itself is a
// util::IndexedHeap of 24-byte {at, seq, slot} keys, keyed by slot. An
// action is moved once into its slot (At) and once out of it (Step); a heap
// sift moves only keys.
//
// Cancellation: At/After return an EventId, and Cancel erases that event's
// key from the heap in O(log n) by its slot. A cancelled event never runs
// and leaves the queue at once, so pending() and peak_pending() count live
// events only; executed() counts events run.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/task.h"
#include "util/indexed_heap.h"
#include "util/time.h"

namespace webcc::sim {

// Names one scheduled event. Sequence numbers start at 1, so a
// default-constructed EventId names no event.
struct EventId {
  std::uint32_t slot = 0;
  std::uint64_t seq = 0;
};

class Simulator {
 public:
  using Action = Task;

  Time now() const { return now_; }

  // Schedules `action` at absolute time `t` (>= now()).
  EventId At(Time t, Action action);

  // Schedules `action` `delay` microseconds from now (delay >= 0).
  EventId After(Time delay, Action action);

  // Removes the pending event `id` so it never runs; returns whether it
  // did. A no-op (false) once the event has run or been cancelled, or when
  // its slot now holds a later event.
  bool Cancel(EventId id);

  // Runs the earliest event; returns false when the queue is empty.
  bool Step();

  // Runs until the queue drains.
  void Run();

  // Runs all events with timestamp <= `t`, then advances the clock to `t`
  // even if the queue still holds later events.
  void RunUntil(Time t);

  // Pre-sizes the heap and the slab for `events` simultaneously pending
  // events.
  void Reserve(std::size_t events);

  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }
  // Largest number of simultaneously pending events so far.
  std::size_t peak_pending() const { return peak_pending_; }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t id;  // the action's slot in slab_
  };
  static_assert(sizeof(Key) == 24);
  struct Before {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  util::IndexedHeap<Key, Before> queue_;   // keyed by slot
  std::vector<Task> slab_;                 // actions, by slot
  std::vector<std::uint32_t> free_slots_;  // LIFO: the warmest slot first
};

}  // namespace webcc::sim
