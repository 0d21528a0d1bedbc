// Dense string interning for the hot lookup structures.
//
// The replay's inner loops key their state by URL and site name — the
// proxy cache's entry index (url@client) and per-URL index, the document
// store, the accelerator's invalidation table and version baselines — so
// every request used to hash and compare whole strings several times. An
// Interner maps each distinct string to a dense uint32 once, where the name
// enters a component; everything behind that point (TTL heaps, site lists,
// id-indexed vectors) keys on the integer. Ids are never recycled and are
// handed out in first-sight order: the table is bounded by the number of
// distinct names in a trace, and a stable id lets heaps and logs refer to
// strings without owning them.
//
// Layout: the names live in a deque (addresses stable across growth, so
// NameOf references never dangle), indexed by a flat open-addressing table
// of 8-byte (id, 32-bit hash) slots — power-of-two capacity, linear
// probing, at most 3/4 full. A probe compares the stored hash before it
// touches the name, and growth re-slots from the stored hashes without
// rehashing a single string.
//
// Not thread-safe; each replay engine owns its interners (one simulation
// per thread, no shared mutable state — see replay::Farm).
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

class Interner {
 public:
  // Returns the id for `s`, interning it on first sight.
  InternId Intern(std::string_view s) {
    if ((names_.size() + 1) * 4 > slots_.size() * 3) Grow();
    const std::uint32_t hash = Hash(s);
    Slot& slot = slots_[Probe(s, hash)];
    if (slot.id != kNoInternId) return slot.id;
    names_.emplace_back(s);
    slot = {static_cast<InternId>(names_.size() - 1), hash};
    return slot.id;
  }

  // Returns the id for `s` without interning, or kNoInternId when absent.
  // Lookups of never-inserted keys (cache misses) must not grow the table.
  InternId Find(std::string_view s) const {
    if (slots_.empty()) return kNoInternId;
    return slots_[Probe(s, Hash(s))].id;
  }

  const std::string& NameOf(InternId id) const { return names_[id]; }

  std::size_t size() const { return names_.size(); }

 private:
  struct Slot {
    InternId id = kNoInternId;  // kNoInternId = empty
    std::uint32_t hash = 0;
  };

  // Word-at-a-time multiply-xorshift hash. The low bits pick the slot, and
  // a product's low bits see only its inputs' low bits, so every round
  // shifts the high half down into them.
  static std::uint32_t Hash(std::string_view s) {
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

  // The slot holding `s`, or the empty slot where it would go.
  std::size_t Probe(std::string_view s, std::uint32_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (true) {
      const Slot& slot = slots_[i];
      if (slot.id == kNoInternId) return i;
      if (slot.hash == hash && names_[slot.id] == s) return i;
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

  std::deque<std::string> names_;
  std::vector<Slot> slots_;  // power-of-two size; empty until first Intern
};

}  // namespace webcc::core
