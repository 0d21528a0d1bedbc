// GreedyDual-Size (Cao & Irani) with uniform retrieval cost: every entry
// carries a credit H = L + cost/size with cost = 1, and the entry with the
// smallest H is evicted. Instead of aging every resident entry on each
// eviction, the standard inflation-offset trick raises the global floor L
// to the victim's H — a hit or insert then re-credits the entry above the
// floor, so recently-useful small objects outlive large cold ones.
//
// This is the one policy that keeps per-entry state: one indexed min-heap
// of (H, order, entry id) credits, exactly one per resident entry (a
// re-credit replaces the entry's credit in place). `order` is a
// policy-private monotone counter, so credit ties break toward the older
// credit — the same older-first convention as the TTL index's stamp order —
// and the whole decision sequence is deterministic (doubles included: the
// arithmetic is a fixed-order sum of exact inputs).
#pragma once

#include <algorithm>
#include <cstdint>

#include "http/eviction/policy.h"
#include "util/indexed_heap.h"

namespace webcc::http::eviction {

class GdsPolicy : public EvictionPolicy {
 public:
  EvictionPolicyKind kind() const override {
    return EvictionPolicyKind::kGds;
  }

  void OnInsert(const EntryView& entry) override { Credit(entry); }
  void OnHit(const EntryView& entry) override { Credit(entry); }
  void OnErase(const EntryView& entry) override { credits_.Erase(entry.id); }

  Victim PickVictim(Time /*now*/, const EvictionHost& /*host*/) override {
    // PickVictim is only called with a resident entry, and each one holds a
    // credit, so the heap is not empty. The victim's OnErase drops its
    // credit.
    const CreditRecord& lowest = credits_.top();
    inflation_ = lowest.h;
    ++stats_.picks;
    return Victim{lowest.id, /*expired_rule=*/false};
  }

  void ExportStats(obs::MetricsRegistry& registry,
                   std::string_view prefix) const override {
    EvictionPolicy::ExportStats(registry, prefix);
    std::string name(prefix);
    name += "gds_inflation";
    registry.SetGauge(name, inflation_);
  }

  std::uint64_t MemoryFootprintBytes() const override {
    return credits_.MemoryFootprintBytes();
  }

  double inflation() const { return inflation_; }

 private:
  struct CreditRecord {
    double h = 0.0;
    std::uint64_t order = 0;
    EntryId id = kNoEntryId;
  };

  // Min-heap by (h, order): ties in credit evict the older credit first.
  struct CheaperFirst {
    bool operator()(const CreditRecord& a, const CreditRecord& b) const {
      return a.h != b.h ? a.h < b.h : a.order < b.order;
    }
  };

  void Credit(const EntryView& entry) {
    const double h =
        inflation_ + 1.0 / static_cast<double>(std::max<std::uint64_t>(
                               entry.size_bytes, 1));
    credits_.Erase(entry.id);
    credits_.Push(CreditRecord{h, next_order_++, entry.id});
  }

  double inflation_ = 0.0;
  std::uint64_t next_order_ = 0;
  util::IndexedHeap<CreditRecord, CheaperFirst> credits_;
};

}  // namespace webcc::http::eviction
