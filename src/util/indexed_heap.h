// A binary min-heap that erases any record in place. Each record carries a
// dense `std::uint32_t id`, and the heap keeps every queued id's position
// beside it, so Find and Erase reach a record by id. Its owner erases or
// replaces a record the moment the record's subject changes, so the heap
// holds exactly the live records: no lazy deletion, no liveness stamps, no
// compaction.
//
// `Before` is a stateless strict order. Each user makes it total (ties break
// on a unique sequence number), so top() and the Pop() order depend only on
// which records are queued, not on how they were pushed and erased.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace webcc::util {

template <typename Record, typename Before>
class IndexedHeap {
 public:
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  // The first record in `Before` order. The heap must not be empty.
  const Record& top() const { return records_.front(); }

  // The queued record with `id`, or nullptr.
  const Record* Find(std::uint32_t id) const {
    if (id >= pos_.size() || pos_[id] == kAbsent) return nullptr;
    return &records_[pos_[id]];
  }

  // Queues `record`. Its id must not be queued already.
  void Push(const Record& record) {
    if (record.id >= pos_.size()) {
      pos_.resize(static_cast<std::size_t>(record.id) + 1, kAbsent);
    }
    WEBCC_DCHECK(pos_[record.id] == kAbsent);
    records_.push_back(record);
    SiftUp(records_.size() - 1, record);
  }

  // Removes and returns the top record. The heap must not be empty.
  Record Pop() {
    const Record top = records_.front();
    RemoveAt(0);
    return top;
  }

  // Removes the record with `id`; returns false when none is queued.
  bool Erase(std::uint32_t id) {
    if (id >= pos_.size() || pos_[id] == kAbsent) return false;
    RemoveAt(pos_[id]);
    return true;
  }

  // Bytes held by the records and the position table (capacity, not live
  // count). The table spans the largest id ever queued.
  std::uint64_t MemoryFootprintBytes() const {
    return records_.capacity() * sizeof(Record) +
           pos_.capacity() * sizeof(std::uint32_t);
  }

  // Pre-sizes for `records` queued records with ids below `records`.
  void Reserve(std::size_t records) {
    records_.reserve(records);
    pos_.reserve(records);
  }

 private:
  // pos_ value of an id with no queued record.
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();

  static bool Less(const Record& a, const Record& b) { return Before{}(a, b); }

  void Place(std::size_t pos, const Record& record) {
    records_[pos] = record;
    pos_[record.id] = static_cast<std::uint32_t>(pos);
  }

  void SiftUp(std::size_t pos, const Record& record) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!Less(record, records_[parent])) break;
      Place(pos, records_[parent]);
      pos = parent;
    }
    Place(pos, record);
  }

  void RemoveAt(std::size_t pos) {
    pos_[records_[pos].id] = kAbsent;
    const Record last = records_.back();
    records_.pop_back();
    const std::size_t size = records_.size();
    if (pos == size) return;
    // Walk the hole down to a leaf along the smaller children, then seat
    // the old last record there and sift it up (it may rise past `pos`).
    for (std::size_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
      if (child + 1 < size && Less(records_[child + 1], records_[child])) {
        ++child;
      }
      Place(pos, records_[child]);
      pos = child;
    }
    SiftUp(pos, last);
  }

  std::vector<Record> records_;
  std::vector<std::uint32_t> pos_;  // by id: index in records_, or kAbsent
};

}  // namespace webcc::util
