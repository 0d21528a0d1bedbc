// Online aggregation of latency (or any non-negative scalar) samples in
// fixed memory.
//
// Replays record one sample per client request, so the aggregate keeps no
// samples. count, sum, min and max are exact; the distribution is a
// log-linear histogram (HdrHistogram-style): each power of two is split
// into 64 equal sub-buckets, indexed from the double's exponent and top
// mantissa bits, so a bucket's midpoint is within 1/128 (<1%) of every
// value in it. Counts live in a dense array over whole octaves, from the
// smallest to the largest nonzero value recorded, and zeros have a count
// of their own; an empty histogram holds no heap, and its memory grows
// with the value range, never with the sample count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace webcc::stats {

class LatencyStats {
 public:
  // `value` must be finite and non-negative (times, lengths).
  void Record(double value);
  // Adds `other`'s counts bucket by bucket: exact and order-independent.
  void Merge(const LatencyStats& other);

  std::size_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }

  // Percentile p in [0, 100]; 0 when empty. The rank is the interpolated
  // order statistic p/100 * (count - 1); each of the two order statistics
  // it falls between is read as the midpoint of its bucket, clamped to
  // [min, max]. p0 and p100 are min and max exactly; the rest are within
  // 1% of the exact interpolated value.
  double Percentile(double p) const;

  // Equality of the exact aggregates, the buckets, and an order-independent
  // 64-bit fingerprint of the samples' bits (a wrapping sum of a mixed hash
  // of each), so two different sample sets that share every bucket still
  // compare unequal (up to a 2^-64 collision). min_ and max_ stay 0 until
  // the first sample, so two empty histograms compare equal.
  bool operator==(const LatencyStats& other) const = default;

  // Heap bytes held by the bucket counts.
  std::uint64_t MemoryFootprintBytes() const {
    return counts_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::uint32_t LastOctave() const;
  // Widens the dense array to cover octaves [first_octave, last_octave].
  void Cover(std::uint32_t first_octave, std::uint32_t last_octave);
  // Representative value of the order statistic at 0-based `rank`.
  double ValueAtRank(std::uint64_t rank) const;

  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t zeros_ = 0;
  // counts_[i] is the count of bucket key first_octave_ * 64 + i, where a
  // positive double's key is its bit pattern shifted right by 46.
  std::uint32_t first_octave_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace webcc::stats
