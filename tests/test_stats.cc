// Unit tests for stats/: latency aggregation, utilization, table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "replay/engine.h"
#include "stats/latency.h"
#include "stats/table.h"
#include "stats/utilization.h"
#include "synth/generate.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace webcc::stats {
namespace {

// The exact value LatencyStats::Percentile approximates: the order
// statistic at the interpolated rank p/100 * (n - 1) of the sorted samples.
double ExactPercentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

// --- LatencyStats --------------------------------------------------------------

TEST(LatencyStats, EmptyIsZero) {
  LatencyStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 0.0);
}

TEST(LatencyStats, SingleSample) {
  LatencyStats stats;
  stats.Record(4.5);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.min(), 4.5);
  EXPECT_DOUBLE_EQ(stats.max(), 4.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.5);
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 4.5);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 4.5);
}

TEST(LatencyStats, MinMaxMean) {
  LatencyStats stats;
  for (double v : {3.0, 1.0, 2.0}) stats.Record(v);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
}

TEST(LatencyStats, PercentilesExact) {
  LatencyStats stats;
  for (int i = 1; i <= 100; ++i) stats.Record(i);
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 100.0);
  EXPECT_NEAR(stats.Percentile(50), 50.5, 0.01 * 50.5);
  EXPECT_NEAR(stats.Percentile(99), 99.01, 0.01 * 99.01);
}

TEST(LatencyStats, RecordAfterPercentileKeepsSorting) {
  LatencyStats stats;
  stats.Record(2.0);
  stats.Record(1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 2.0);
  stats.Record(0.5);
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 0.5);
}

TEST(LatencyStats, MergeCombines) {
  LatencyStats a;
  LatencyStats b;
  a.Record(1.0);
  a.Record(2.0);
  b.Record(10.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_NEAR(a.mean(), 13.0 / 3, 1e-9);
}

TEST(LatencyStats, MergedPercentilesDescribeEverySample) {
  LatencyStats low;
  LatencyStats high;
  LatencyStats whole;
  for (int i = 1; i <= 500; ++i) low.Record(i);
  for (int i = 1000; i > 500; --i) high.Record(i);
  for (int i = 1000; i >= 1; --i) whole.Record(i);
  low.Merge(high);
  EXPECT_EQ(low.count(), 1000u);
  EXPECT_DOUBLE_EQ(low.mean(), 500.5);
  EXPECT_DOUBLE_EQ(low.Percentile(0), 1.0);
  EXPECT_NEAR(low.Percentile(50), 500.5, 0.01 * 500.5);
  EXPECT_DOUBLE_EQ(low.Percentile(100), 1000.0);
  EXPECT_EQ(low, whole);
}

TEST(LatencyStats, MergeEmptyIsNoop) {
  LatencyStats a;
  a.Record(5.0);
  LatencyStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.min(), 5.0);
}

using Draw = std::function<double(util::Rng&)>;

// Records 10^5 seeded draws and checks the histogram against the sorted
// samples: count, min, max, p0 and p100 exact, the rest within 1%.
void ExpectPercentilesNearExact(const char* name, const Draw& draw) {
  constexpr double kPercentiles[] = {1, 5, 25, 50, 75, 90, 95, 99, 99.9};
  util::Rng rng(0x5eed);
  LatencyStats stats;
  std::vector<double> samples;
  for (int i = 0; i < 100'000; ++i) {
    samples.push_back(draw(rng));
    stats.Record(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(stats.count(), samples.size()) << name;
  EXPECT_EQ(stats.min(), samples.front()) << name;
  EXPECT_EQ(stats.max(), samples.back()) << name;
  EXPECT_EQ(stats.Percentile(0), samples.front()) << name;
  EXPECT_EQ(stats.Percentile(100), samples.back()) << name;
  for (const double p : kPercentiles) {
    const double exact = ExactPercentile(samples, p);
    EXPECT_NEAR(stats.Percentile(p), exact, 0.01 * exact) << name << " p" << p;
  }
}

TEST(LatencyStats, PercentilesWithinOnePercentOfExact) {
  ExpectPercentilesNearExact("integers 1..1000", [](util::Rng& rng) {
    return static_cast<double>(rng.NextInRange(1, 1000));
  });
  ExpectPercentilesNearExact("lognormal", [](util::Rng& rng) {
    return util::SampleLognormal(rng, 100.0, 1.5);
  });
  // e^X for exponential X: a Pareto tail spanning ~17 octaves.
  ExpectPercentilesNearExact("exponential heavy tail", [](util::Rng& rng) {
    return std::exp(util::SampleExponential(rng, 1.0));
  });
  ExpectPercentilesNearExact("constant", [](util::Rng&) { return 42.5; });
  ExpectPercentilesNearExact("half zeros", [](util::Rng& rng) {
    if (rng.NextBelow(2) == 0) return 0.0;
    return util::SampleLognormal(rng, 20.0, 1.0);
  });
}

TEST(LatencyStats, MergeIsExactAndOrderIndependent) {
  // Multiples of 1/8: every partial sum is exact, so the sums match too
  // whatever the order. b reaches below and above a's range, and adds
  // zeros, so each merge widens the bucket array at both ends.
  util::Rng rng(7);
  LatencyStats a;
  LatencyStats b;
  LatencyStats whole;
  for (int i = 0; i < 5000; ++i) {
    const double in_a =
        std::round(util::SampleLognormal(rng, 50.0, 1.0) * 8.0) / 8.0;
    std::int64_t eighths = 0;
    if (i % 3 == 1) eighths = rng.NextInRange(1, 4);
    if (i % 3 == 2) eighths = rng.NextInRange(8000, 80000);
    const double in_b = static_cast<double>(eighths) / 8.0;
    a.Record(in_a);
    b.Record(in_b);
    whole.Record(in_b);
    whole.Record(in_a);
  }
  LatencyStats ab = a;
  ab.Merge(b);
  LatencyStats ba = b;
  ba.Merge(a);
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab, whole);
  EXPECT_NE(ab, a);
  for (const double p : {0.0, 1.0, 25.0, 33.3, 50.0, 90.0, 99.9, 100.0}) {
    EXPECT_EQ(ab.Percentile(p), ba.Percentile(p)) << "p" << p;
    EXPECT_EQ(ab.Percentile(p), whole.Percentile(p)) << "p" << p;
  }
}

TEST(LatencyStats, FingerprintTellsApartSetsThatShareEveryBucket) {
  // All eight values fall in the bucket [8, 8.125); the middle pairs differ
  // but have equal (exact) sums, so count, sum, min, max and every bucket
  // agree. Only the samples' fingerprint can tell the sets apart.
  LatencyStats a;
  LatencyStats b;
  for (const double v : {8.0, 8.03125, 8.09375, 8.1}) a.Record(v);
  for (const double v : {8.0, 8.0625, 8.0625, 8.1}) b.Record(v);
  ASSERT_EQ(a.count(), b.count());
  ASSERT_EQ(a.sum(), b.sum());
  ASSERT_EQ(a.min(), b.min());
  ASSERT_EQ(a.max(), b.max());
  for (const double p : {10.0, 50.0, 90.0}) {
    ASSERT_EQ(a.Percentile(p), b.Percentile(p)) << "p" << p;
  }
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a);
}

TEST(LatencyStats, EqualityIsOverTheSampleSetNotTheRecordOrder) {
  // min and max read 0 until the first sample, and so do the members
  // behind them, so two empty histograms are equal.
  EXPECT_EQ(LatencyStats{}, LatencyStats{});
  LatencyStats zero;
  zero.Record(0.0);
  EXPECT_DOUBLE_EQ(zero.min(), LatencyStats{}.min());
  EXPECT_DOUBLE_EQ(zero.max(), LatencyStats{}.max());
  EXPECT_NE(zero, LatencyStats{});  // one sample is not none

  LatencyStats up;
  LatencyStats down;
  for (const double v : {1.0, 2.0, 4.0}) up.Record(v);
  for (const double v : {4.0, 2.0, 1.0}) down.Record(v);
  EXPECT_EQ(up, down);
  // Same count, sum and min; only the largest sample differs.
  LatencyStats flat;
  for (const double v : {1.0, 3.0, 3.0}) flat.Record(v);
  ASSERT_EQ(flat.count(), up.count());
  ASSERT_DOUBLE_EQ(flat.sum(), up.sum());
  EXPECT_NE(up, flat);
}

TEST(LatencyStats, FootprintFollowsValueRangeNotSampleCount) {
  // Ten times the samples of one lognormal may reach at most two octaves
  // further into its tails: 2 x 64 eight-byte counts.
  util::Rng rng(11);
  LatencyStats stats;
  EXPECT_EQ(stats.MemoryFootprintBytes(), 0u);  // empty holds no heap
  std::uint64_t at_100k = 0;
  for (int i = 1; i <= 1'000'000; ++i) {
    stats.Record(util::SampleLognormal(rng, 100.0, 1.5));
    if (i == 100'000) at_100k = stats.MemoryFootprintBytes();
  }
  EXPECT_GT(at_100k, 0u);
  EXPECT_LE(stats.MemoryFootprintBytes(),
            at_100k + 2 * 64 * sizeof(std::uint64_t));
}

TEST(LatencyStats, ReplayMetricsHoldNoBytesPerRequest) {
  // The six histograms of a replay's metrics, at 10^4 and 10^5 requests of
  // one synth scenario with writes: the added requests may cost a fraction
  // of a byte each (new octaves in the tails), never a sample's 8 bytes.
  const auto histogram_bytes = [](std::uint64_t requests) {
    synth::ScenarioConfig scenario;
    scenario.requests = requests;
    scenario.write_fraction = 0.05;
    const synth::SynthWorkload workload = synth::Generate(scenario);
    replay::ReplayConfig config;
    config.trace = &workload.trace;
    config.explicit_modifications = workload.writes;
    config.suppress_generated_modifications = true;
    config.protocol = core::Protocol::kInvalidation;
    const replay::ReplayMetrics metrics = replay::RunReplay(config);
    EXPECT_EQ(metrics.latency_ms.count(), metrics.requests_issued);
    EXPECT_GT(metrics.invalidation_time_ms.count(), 0u);
    return metrics.MemoryFootprintBytes();
  };
  const std::uint64_t at_10k = histogram_bytes(10'000);
  const std::uint64_t at_100k = histogram_bytes(100'000);
  const double per_added_request =
      (static_cast<double>(at_100k) - static_cast<double>(at_10k)) / 90'000.0;
  EXPECT_LE(per_added_request, 0.1)
      << at_10k << " bytes at 10^4 requests, " << at_100k << " at 10^5";
}

// --- Utilization ------------------------------------------------------------------

TEST(Utilization, BusyFraction) {
  Utilization util;
  util.AddBusy(30 * kSecond);
  EXPECT_DOUBLE_EQ(util.BusyFraction(60 * kSecond), 0.5);
}

TEST(Utilization, BusyFractionSaturatesAtOne) {
  Utilization util;
  util.AddBusy(100 * kSecond);
  EXPECT_DOUBLE_EQ(util.BusyFraction(10 * kSecond), 1.0);
}

TEST(Utilization, ZeroElapsedIsZero) {
  Utilization util;
  util.AddBusy(kSecond);
  EXPECT_DOUBLE_EQ(util.BusyFraction(0), 0.0);
  EXPECT_DOUBLE_EQ(util.ReadsPerSecond(0), 0.0);
}

TEST(Utilization, OperationRates) {
  Utilization util;
  for (int i = 0; i < 30; ++i) util.AddRead();
  for (int i = 0; i < 10; ++i) util.AddWrite();
  EXPECT_DOUBLE_EQ(util.ReadsPerSecond(10 * kSecond), 3.0);
  EXPECT_DOUBLE_EQ(util.WritesPerSecond(10 * kSecond), 1.0);
  EXPECT_EQ(util.reads(), 30u);
  EXPECT_EQ(util.writes(), 10u);
}

// --- Table ------------------------------------------------------------------------

TEST(Table, RendersHeaderAndRows) {
  Table table({"Metric", "A", "B"});
  table.AddRow({"hits", "10", "20"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("Metric"), std::string::npos);
  EXPECT_NE(out.find("hits"), std::string::npos);
  EXPECT_NE(out.find("20"), std::string::npos);
}

TEST(Table, ColumnsAligned) {
  Table table({"M", "Value"});
  table.AddRow({"long-metric-name", "1"});
  table.AddRow({"x", "12345678"});
  const std::string out = table.Render();
  // Every line has the same width.
  std::size_t expected = out.find('\n');
  std::size_t start = 0;
  while (start < out.size()) {
    const std::size_t end = out.find('\n', start);
    EXPECT_EQ(end - start, expected);
    start = end + 1;
  }
}

TEST(Table, SeparatorRendersRule) {
  Table table({"A"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  const std::string out = table.Render();
  // Header rule + explicit separator = at least two all-dash lines.
  int rules = 0;
  std::size_t start = 0;
  while (start < out.size()) {
    const std::size_t end = out.find('\n', start);
    const std::string line = out.substr(start, end - start);
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) {
      ++rules;
    }
    start = end + 1;
  }
  EXPECT_GE(rules, 2);
}

}  // namespace
}  // namespace webcc::stats
