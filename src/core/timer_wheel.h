// Hashed timer wheel for lease expiry (ROADMAP item 4).
//
// The invalidation table's prune used to scan every site-list entry at
// every lockstep boundary — O(total entries) even when nothing expired,
// which at 10^6-10^7 registered sites dominates the accelerator. The wheel
// makes prune O(expired) amortized: each expirable entry is dropped into
// the ring slot its expiry maps to, and a prune only visits the slots the
// clock has passed since the last prune.
//
// Design:
//  * A ring of `slots` buckets of `granularity` microseconds each. An
//    entry with absolute expiry E lives in ring[(E / granularity) % slots].
//    The wheel is sized so one revolution covers at least the longest
//    lease the table grants (the caller picks granularity = 2 * max lease
//    span / slots), so in the common case a slot holds entries of exactly
//    one revolution and no per-entry round counter is needed.
//  * Entries are 8 bytes — (url id, site id) — and carry NO expiry. The
//    wheel is an index, never the authority: on every visit the caller's
//    callback re-reads the lease from the table and answers with the
//    authoritative expiry. That one rule absorbs every hard case lazily:
//      - renewal: a refreshed lease is found alive when its OLD slot is
//        visited and is simply rescheduled at the new expiry — repeat
//        viewers refresh in place, no duplicate wheel entries;
//      - stale entries: a list taken for invalidation (or wiped by journal
//        replay) leaves wheel entries behind; the visit finds them gone
//        and drops them;
//      - out-of-range expiries (journal text is untrusted input): Schedule
//        clamps the target slot into the current revolution, the early
//        visit finds the lease alive and reschedules — correct for any
//        input, merely slower for hostile ones.
//  * Advance(now) visits [cursor, now / granularity] inclusive. Revisiting
//    the cursor slot is what makes the boundary exact: an entry whose
//    expiry lands later inside the current slot stays scheduled there and
//    is re-examined at the next prune, so a lease dies at exactly the
//    half-open [grant, lease_until) boundary core/lease.h documents, never
//    one granularity-rounding early or late.
//
// Determinism: the wheel changes WHEN expiry work happens, never WHAT is
// expired — the authoritative-callback check makes Advance(now) drop
// exactly the entries a full scan at `now` would have dropped, so replay
// digests are bit-identical to the scan implementation at any shard count
// (test_timer_wheel's property test drives 10^5 seeded pairs through both).
//
// Cost: draining 10^5 expiries through 64 prunes calls the authority about
// once per entry, where a full scan makes ~32 calls per entry
// (TimerWheel.DrainVisitsEachEntryAboutOnce bounds it at 2); the benchmark
// times prune per expired entry as core.prune_ns_per_expired.
//
// Not thread-safe; owned by InvalidationTable (one wheel per table, one
// table per accelerator shard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/intern.h"
#include "util/check.h"
#include "util/time.h"

namespace webcc::core {

class TimerWheel {
 public:
  // An unconfigured wheel rejects Schedule; Configure before first use.
  TimerWheel() = default;

  void Configure(Time granularity, std::size_t slots) {
    WEBCC_CHECK(granularity > 0);
    WEBCC_CHECK(slots > 1);
    ring_.assign(slots, {});
    granularity_ = granularity;
    cursor_ = 0;
    scheduled_ = 0;
  }

  bool configured() const { return granularity_ > 0; }
  std::size_t scheduled() const { return scheduled_; }
  Time granularity() const { return granularity_; }
  std::size_t slots() const { return ring_.size(); }

  // Schedules (url, site) for the slot covering `expiry`. Expiries at or
  // before the cursor land in the cursor slot (visited by the very next
  // Advance); expiries beyond one revolution are clamped to the furthest
  // slot and lazily rescheduled on visit.
  void Schedule(InternId url, InternId site, Time expiry) {
    WEBCC_DCHECK(configured());
    std::int64_t slot = expiry / granularity_;
    if (slot < cursor_) slot = cursor_;
    const std::int64_t horizon =
        cursor_ + static_cast<std::int64_t>(ring_.size()) - 1;
    if (slot > horizon) slot = horizon;
    ring_[static_cast<std::size_t>(slot) % ring_.size()].push_back(
        {url, site});
    ++scheduled_;
  }

  // Advances the wheel to `now`, visiting every slot the clock has passed
  // (the cursor slot is always revisited). For each entry, calls
  // `authority(url, site)`, which must return the entry's authoritative
  // expiry after performing any expiry-side effects itself:
  //   * a Time <= now  — the entry is done (expired and handled by the
  //     callback, vanished from the table, or net::kNoLease, i.e. now
  //     unexpirable); the wheel forgets it;
  //   * a Time > now   — still alive; rescheduled at that expiry.
  // A `now` earlier than the cursor (out-of-order prune) only revisits the
  // cursor slot — Schedule's clamp guarantees that is where any entry due
  // before the cursor lives — and never moves the cursor backwards.
  template <typename Authority>
  void Advance(Time now, Authority authority) {
    if (!configured() || scheduled_ == 0) {
      if (configured() && now / granularity_ > cursor_) {
        cursor_ = now / granularity_;
      }
      return;
    }
    const std::int64_t target = std::max(cursor_, now / granularity_);
    std::int64_t first = cursor_;
    if (target - first >= static_cast<std::int64_t>(ring_.size())) {
      first = target - static_cast<std::int64_t>(ring_.size()) + 1;
    }
    for (std::int64_t s = first; s <= target; ++s) {
      std::vector<Entry>& slot = ring_[static_cast<std::size_t>(s) %
                                       ring_.size()];
      if (slot.empty()) continue;
      // Swap the slot out before visiting: the callback's reschedules
      // (including back into this very slot) append to fresh vectors.
      std::vector<Entry> due;
      due.swap(slot);
      cursor_ = s;  // reschedules clamp against the slot being visited
      for (const Entry& entry : due) {
        const Time expiry = authority(entry.url, entry.site);
        --scheduled_;
        if (expiry > now) Schedule(entry.url, entry.site, expiry);
      }
    }
    cursor_ = target;
  }

  void Clear() {
    for (std::vector<Entry>& slot : ring_) {
      slot.clear();
      slot.shrink_to_fit();
    }
    scheduled_ = 0;
  }

  // Measured bytes held by the ring's entry vectors
  // (InvalidationTable::MemoryFootprintBytes includes this: the wheel is
  // part of the cost of making prune O(expired)).
  std::uint64_t MemoryFootprintBytes() const {
    std::uint64_t bytes = ring_.capacity() * sizeof(std::vector<Entry>);
    for (const std::vector<Entry>& slot : ring_) {
      bytes += slot.capacity() * sizeof(Entry);
    }
    return bytes;
  }

 private:
  struct Entry {
    InternId url;
    InternId site;
  };

  std::vector<std::vector<Entry>> ring_;
  Time granularity_ = 0;
  std::int64_t cursor_ = 0;  // absolute slot index of the last visit
  std::size_t scheduled_ = 0;
};

}  // namespace webcc::core
