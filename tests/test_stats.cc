// Unit tests for stats/: latency aggregation, utilization, table rendering.
#include <gtest/gtest.h>

#include <string>

#include "stats/latency.h"
#include "stats/table.h"
#include "stats/utilization.h"

namespace webcc::stats {
namespace {

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
  EXPECT_NEAR(stats.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(stats.Percentile(99), 99.01, 0.01);
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
  EXPECT_DOUBLE_EQ(low.Percentile(50), 500.5);
  EXPECT_DOUBLE_EQ(low.Percentile(100), 1000.0);
  EXPECT_TRUE(low.SameSamples(whole));
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
