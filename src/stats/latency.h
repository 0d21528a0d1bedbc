// Online aggregation of latency (or any scalar) samples.
//
// Replays record one sample per client request (tens of thousands), so the
// aggregate keeps the full sample set for exact percentiles; Min/Max/Mean are
// maintained online.
#pragma once

#include <cstddef>
#include <vector>

#include "util/time.h"

namespace webcc::stats {

class LatencyStats {
 public:
  void Record(double value);
  void Merge(const LatencyStats& other);

  std::size_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }

  // Exact percentile over every sample, p in [0, 100]. Returns 0 when
  // empty. Sorts lazily, amortized across queries.
  double Percentile(double p) const;

  // Bit-exact equality of the aggregates and the (sorted) sample sets.
  // Sample order is normalized first, so two runs that recorded the same
  // values compare equal regardless of when Percentile() was last called.
  bool SameSamples(const LatencyStats& other) const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable bool sorted_ = true;
  mutable std::vector<double> samples_;
};

}  // namespace webcc::stats
