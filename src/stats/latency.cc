#include "stats/latency.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace webcc::stats {

void LatencyStats::Record(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  samples_.push_back(value);
  sorted_ = false;
}

void LatencyStats::Merge(const LatencyStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

double LatencyStats::min() const { return count_ == 0 ? 0.0 : min_; }
double LatencyStats::max() const { return count_ == 0 ? 0.0 : max_; }

double LatencyStats::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

bool LatencyStats::SameSamples(const LatencyStats& other) const {
  if (count_ != other.count_ || sum_ != other.sum_ || min() != other.min() ||
      max() != other.max() || samples_.size() != other.samples_.size()) {
    return false;
  }
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (!other.sorted_) {
    std::sort(other.samples_.begin(), other.samples_.end());
    other.sorted_ = true;
  }
  return samples_ == other.samples_;
}

double LatencyStats::Percentile(double p) const {
  WEBCC_CHECK(p >= 0.0 && p <= 100.0);
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  // Nearest-rank with linear interpolation between adjacent order statistics.
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace webcc::stats
