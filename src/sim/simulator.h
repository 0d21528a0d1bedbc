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
// in a slot of a free-listed slab, and the queue itself is a binary min-heap
// of 24-byte {at, seq, slot} keys. An action is moved once into its slot
// (At) and once out of it (Step); a heap sift moves only keys, and every
// slot records its key's heap position.
//
// Cancellation: At/After return an EventId, and Cancel removes that event
// from the heap in O(log n) through the slot's heap position. A cancelled
// event never runs and leaves the queue at once, so pending() and
// peak_pending() count live events only; executed() counts events run.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/task.h"
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

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }
  // Largest number of simultaneously pending events so far.
  std::size_t peak_pending() const { return peak_pending_; }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24);
  static bool Before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  // heap_pos_ value of a free slot.
  static constexpr std::uint32_t kFree =
      std::numeric_limits<std::uint32_t>::max();

  void Place(std::size_t pos, const Key& key) {
    heap_[pos] = key;
    heap_pos_[key.slot] = static_cast<std::uint32_t>(pos);
  }
  void SiftUp(std::size_t pos, const Key& key);
  // Takes the key at `pos` out of the heap; its action stays in its slot.
  void RemoveAt(std::size_t pos);
  void FreeSlot(std::uint32_t slot) {
    heap_pos_[slot] = kFree;
    free_slots_.push_back(slot);
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<Key> heap_;
  std::vector<Task> slab_;                 // actions, by slot
  std::vector<std::uint32_t> heap_pos_;    // by slot: index in heap_ or kFree
  std::vector<std::uint32_t> free_slots_;  // LIFO: the warmest slot first
};

}  // namespace webcc::sim
