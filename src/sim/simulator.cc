#include "sim/simulator.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace webcc::sim {

void Simulator::Reserve(std::size_t events) {
  queue_.Reserve(events);
  slab_.reserve(events);
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
    WEBCC_CHECK_MSG(
        slab_.size() < std::numeric_limits<std::uint32_t>::max(),
        "too many pending events");
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
  }
  const Key key{t, next_seq_++, slot};
  queue_.Push(key);
  if (queue_.size() > peak_pending_) peak_pending_ = queue_.size();
  return {slot, key.seq};
}

EventId Simulator::After(Time delay, Action action) {
  WEBCC_CHECK_MSG(delay >= 0, "negative delay");
  return At(now_ + delay, std::move(action));
}

bool Simulator::Cancel(EventId id) {
  const Key* key = queue_.Find(id.slot);
  if (key == nullptr || key->seq != id.seq) return false;
  queue_.Erase(id.slot);
  // Destroyed at return, once the queue is consistent again.
  const Task cancelled = std::move(slab_[id.slot]);
  free_slots_.push_back(id.slot);
  return true;
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  const Key top = queue_.Pop();
  // Move the action out before running it: it may schedule new events,
  // which can reuse its slot or grow the slab.
  Task action = std::move(slab_[top.id]);
  free_slots_.push_back(top.id);
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
  while (!queue_.empty() && queue_.top().at <= t) Step();
  now_ = t;
}

}  // namespace webcc::sim
