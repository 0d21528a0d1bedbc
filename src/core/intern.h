// Dense string interning for the hot lookup structures.
//
// The replay's inner loops key their state by URL and site name — the
// proxy cache's per-URL index, the document store, the accelerator's
// invalidation table and version baselines — so every request used to hash
// and compare whole strings several times. An Interner maps each distinct
// string to a dense uint32 once, where the name enters a component;
// everything behind that point (site lists, id-indexed vectors) keys on the
// integer. Ids are never recycled and are handed out in first-sight order:
// the table is bounded by the number of distinct names in a trace, and a
// stable id lets heaps and logs refer to strings without owning them. A
// name space that grows without bound over a run (the proxy cache's
// url@client keys) needs an index bounded by what is live instead: its
// owner keeps the keys and indexes them with an IdTable over HashName.
//
// Layout: the names live in a deque (addresses stable across growth, so
// NameOf references never dangle), indexed by an IdTable of 8-byte
// (id, 32-bit hash) slots. A probe compares the stored hash before it
// touches the name.
//
// Not thread-safe; each replay engine owns its interners (one simulation
// per thread, no shared mutable state — see replay::RunAll).
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace webcc::core {

// Dense id for an interned string. 32 bits bounds a single replay at ~4e9
// distinct strings, far above any trace.
using InternId = std::uint32_t;
inline constexpr InternId kNoInternId = 0xffffffffu;

// Word-at-a-time multiply-xorshift hash for power-of-two open-addressing
// tables. The low bits pick the slot, and a product's low bits see only its
// inputs' low bits, so every round shifts the high half down into them.
inline std::uint32_t HashName(std::string_view s) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  const auto mix = [](std::uint64_t h, std::uint64_t word) {
    h = (h ^ word) * kMul;
    return h ^ (h >> 32);
  };
  std::uint64_t h = s.size() * kMul;
  const char* p = s.data();
  std::size_t n = s.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = mix(h, word);
  }
  if (n > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = mix(h, tail);
  }
  return static_cast<std::uint32_t>(h);
}

// An open-addressing index from keys to ids that stores no keys: each slot
// holds an id and its key's 32-bit hash, and the owner, which keeps the
// keys, confirms a hash match by id. Power-of-two capacity, linear probing,
// at most 3/4 full. Growth re-slots from the stored hashes without
// rehashing a key, and Erase shifts the rest of the probe run back instead
// of leaving a tombstone, so capacity follows the peak number of ids held.
class IdTable {
 public:
  // The id stored under `hash` whose key `is_key(id)` accepts, or
  // kNoInternId. Looking up an absent key never grows the table.
  template <typename IsKey>
  InternId Find(std::uint32_t hash, const IsKey& is_key) const {
    if (slots_.empty()) return kNoInternId;
    return slots_[Probe(hash, is_key)].id;
  }

  // Stores `id` under `hash`. Its key must be absent.
  void Insert(InternId id, std::uint32_t hash) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    slots_[Probe(hash, [](InternId) { return false; })] = {id, hash};
    ++size_;
  }

  // Removes `id`, which must be stored under `hash`.
  void Erase(InternId id, std::uint32_t hash) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = hash & mask;
    while (slots_[hole].id != id) hole = (hole + 1) & mask;
    // Pull each later slot of the probe run into the hole, unless that
    // would move it before its home slot.
    for (std::size_t i = (hole + 1) & mask; slots_[i].id != kNoInternId;
         i = (i + 1) & mask) {
      if (((i - slots_[i].hash) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  std::uint64_t MemoryFootprintBytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    InternId id = kNoInternId;  // kNoInternId = empty
    std::uint32_t hash = 0;
  };

  // The slot holding the key `is_key` accepts, or the empty slot where it
  // would go.
  template <typename IsKey>
  std::size_t Probe(std::uint32_t hash, const IsKey& is_key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.id == kNoInternId) return i;
      if (slot.hash == hash && is_key(slot.id)) return i;
      i = (i + 1) & mask;
    }
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.empty() ? 16 : old.size() * 2);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kNoInternId) continue;
      std::size_t i = slot.hash & mask;
      while (slots_[i].id != kNoInternId) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  // power-of-two size; empty until first Insert
  std::size_t size_ = 0;
};

class Interner {
 public:
  // Returns the id for `s`, interning it on first sight.
  InternId Intern(std::string_view s) {
    const std::uint32_t hash = HashName(s);
    const InternId found =
        table_.Find(hash, [&](InternId id) { return names_[id] == s; });
    if (found != kNoInternId) return found;
    names_.emplace_back(s);
    const auto id = static_cast<InternId>(names_.size() - 1);
    table_.Insert(id, hash);
    return id;
  }

  // Returns the id for `s` without interning, or kNoInternId when absent.
  // Lookups of never-inserted keys (cache misses) must not grow the table.
  InternId Find(std::string_view s) const {
    return table_.Find(HashName(s),
                       [&](InternId id) { return names_[id] == s; });
  }

  const std::string& NameOf(InternId id) const { return names_[id]; }

  std::size_t size() const { return names_.size(); }

 private:
  std::deque<std::string> names_;
  IdTable table_;
};

}  // namespace webcc::core
