#include "stats/latency.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace webcc::stats {
namespace {

// 2^6 sub-buckets per octave: a positive double's bucket key is its
// exponent and top six mantissa bits, i.e. its bit pattern >> 46.
constexpr int kSubBucketBits = 6;
constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;
constexpr int kKeyShift = 52 - kSubBucketBits;

std::uint32_t KeyOf(std::uint64_t bits) {
  return static_cast<std::uint32_t>(bits >> kKeyShift);
}

// Midpoint of bucket `key`'s value range.
double Midpoint(std::uint32_t key) {
  const double lo = std::bit_cast<double>(std::uint64_t{key} << kKeyShift);
  const double hi = std::bit_cast<double>(std::uint64_t{key + 1} << kKeyShift);
  return lo + (hi - lo) / 2;
}

// splitmix64's finalizer: spreads every input bit over the whole word, so
// the fingerprint's wrapping sum tells sample sets apart.
std::uint64_t Mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

void LatencyStats::Record(double value) {
  WEBCC_CHECK_MSG(value >= 0.0 && value <= std::numeric_limits<double>::max(),
                  "LatencyStats records finite, non-negative values");
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  // -0.0 counts as 0.0, as it compares equal to it.
  const std::uint64_t bits =
      value == 0.0 ? 0 : std::bit_cast<std::uint64_t>(value);
  fingerprint_ += Mix(bits);
  if (bits == 0) {
    ++zeros_;
    return;
  }
  const std::uint32_t key = KeyOf(bits);
  // Below the covered range the subtraction wraps to a huge index.
  std::size_t index = key - first_octave_ * kSubBuckets;
  if (index >= counts_.size()) {
    Cover(key >> kSubBucketBits, key >> kSubBucketBits);
    index = key - first_octave_ * kSubBuckets;
  }
  ++counts_[index];
}

std::uint32_t LatencyStats::LastOctave() const {
  return first_octave_ +
         static_cast<std::uint32_t>(counts_.size() / kSubBuckets) - 1;
}

void LatencyStats::Cover(std::uint32_t first_octave,
                         std::uint32_t last_octave) {
  if (!counts_.empty()) {
    if (first_octave >= first_octave_ && last_octave <= LastOctave()) return;
    first_octave = std::min(first_octave, first_octave_);
    last_octave = std::max(last_octave, LastOctave());
  }
  // Sized exactly: growth is rare (once per new octave), and the footprint
  // then follows the value range alone.
  std::vector<std::uint64_t> grown(
      std::size_t{last_octave - first_octave + 1} * kSubBuckets, 0);
  if (!counts_.empty()) {
    const std::size_t shift =
        std::size_t{first_octave_ - first_octave} * kSubBuckets;
    std::copy(counts_.begin(), counts_.end(), grown.begin() + shift);
  }
  counts_ = std::move(grown);
  first_octave_ = first_octave;
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
  fingerprint_ += other.fingerprint_;
  zeros_ += other.zeros_;
  if (other.counts_.empty()) return;
  Cover(other.first_octave_, other.LastOctave());
  const std::size_t offset =
      std::size_t{other.first_octave_ - first_octave_} * kSubBuckets;
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[offset + i] += other.counts_[i];
  }
}

double LatencyStats::min() const { return count_ == 0 ? 0.0 : min_; }
double LatencyStats::max() const { return count_ == 0 ? 0.0 : max_; }

double LatencyStats::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyStats::ValueAtRank(std::uint64_t rank) const {
  if (rank == 0) return min_;
  if (rank + 1 >= count_) return max_;
  if (rank < zeros_) return 0.0;
  std::uint64_t below = zeros_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    below += counts_[i];
    if (rank < below) {
      const auto key =
          static_cast<std::uint32_t>(first_octave_ * kSubBuckets + i);
      return std::clamp(Midpoint(key), min_, max_);
    }
  }
  return max_;
}

double LatencyStats::Percentile(double p) const {
  WEBCC_CHECK(p >= 0.0 && p <= 100.0);
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  const double lo = std::floor(rank);
  const double frac = rank - lo;
  const auto lo_rank = static_cast<std::uint64_t>(lo);
  const double at_lo = ValueAtRank(lo_rank);
  if (frac == 0.0) return at_lo;
  return at_lo * (1.0 - frac) + ValueAtRank(lo_rank + 1) * frac;
}

}  // namespace webcc::stats
