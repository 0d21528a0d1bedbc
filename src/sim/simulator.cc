#include "sim/simulator.h"

#include <utility>

#include "util/check.h"

namespace webcc::sim {

void Simulator::Reserve(std::size_t events) {
  heap_.reserve(events);
  slab_.reserve(events);
  heap_pos_.reserve(events);
  free_slots_.reserve(events);
}

EventId Simulator::At(Time t, Action action) {
  WEBCC_CHECK_MSG(t >= now_, "cannot schedule into the past");
  WEBCC_CHECK_MSG(static_cast<bool>(action), "null action");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(action);
  } else {
    WEBCC_CHECK_MSG(slab_.size() < kFree, "too many pending events");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
    heap_pos_.push_back(kFree);
  }
  const Key key{t, next_seq_++, slot};
  heap_.push_back(key);
  SiftUp(heap_.size() - 1, key);
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
  return {slot, key.seq};
}

EventId Simulator::After(Time delay, Action action) {
  WEBCC_CHECK_MSG(delay >= 0, "negative delay");
  return At(now_ + delay, std::move(action));
}

bool Simulator::Cancel(EventId id) {
  if (id.slot >= heap_pos_.size()) return false;
  const std::uint32_t pos = heap_pos_[id.slot];
  if (pos == kFree || heap_[pos].seq != id.seq) return false;
  RemoveAt(pos);
  // Destroyed at return, once the queue is consistent again.
  const Task cancelled = std::move(slab_[id.slot]);
  FreeSlot(id.slot);
  return true;
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  const Key top = heap_.front();
  RemoveAt(0);
  // Move the action out before running it: it may schedule new events,
  // which can reuse its slot or grow the slab.
  Task action = std::move(slab_[top.slot]);
  FreeSlot(top.slot);
  now_ = top.at;
  ++executed_;
  action();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(Time t) {
  WEBCC_CHECK_MSG(t >= now_, "cannot run backwards");
  while (!heap_.empty() && heap_.front().at <= t) Step();
  now_ = t;
}

void Simulator::SiftUp(std::size_t pos, const Key& key) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!Before(key, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, key);
}

void Simulator::RemoveAt(std::size_t pos) {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (pos == size) return;
  // Walk the hole down to a leaf along the smaller children, then seat the
  // old last key there and sift it up (it may rise past `pos`).
  for (std::size_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
    if (child + 1 < size && Before(heap_[child + 1], heap_[child])) ++child;
    Place(pos, heap_[child]);
    pos = child;
  }
  SiftUp(pos, last);
}

}  // namespace webcc::sim
