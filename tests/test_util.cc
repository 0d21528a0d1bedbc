// Unit tests for util/: RNG, distributions, formatting, time helpers, the
// mini JSON parser, the indexed heap, FNV-1a.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/distributions.h"
#include "util/fnv1a.h"
#include "util/format.h"
#include "util/indexed_heap.h"
#include "util/mini_json.h"
#include "util/rng.h"
#include "util/time.h"

namespace webcc::util {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInRangeInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t value = rng.NextInRange(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    saw_lo |= value == -2;
    saw_hi |= value == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, NextBoolRespectsProbability) {
  Rng rng(13);
  int trues = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) trues += rng.NextBool(0.25);
  EXPECT_NEAR(static_cast<double>(trues) / kDraws, 0.25, 0.01);
}

TEST(Rng, ForkGivesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child stream should not simply mirror the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += parent.NextU64() == child.NextU64();
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(21);
  Rng b(21);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fa.NextU64(), fb.NextU64());
}

// --- ZipfDistribution ----------------------------------------------------------

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf(100, 0.9);
  double total = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total += zipf.Pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, PmfDecreasesWithRank) {
  ZipfDistribution zipf(50, 1.0);
  for (std::size_t k = 1; k < zipf.size(); ++k) {
    EXPECT_LE(zipf.Pmf(k), zipf.Pmf(k - 1));
  }
}

TEST(Zipf, ExponentZeroIsUniform) {
  ZipfDistribution zipf(10, 0.0);
  for (std::size_t k = 0; k < zipf.size(); ++k) {
    EXPECT_NEAR(zipf.Pmf(k), 0.1, 1e-9);
  }
}

TEST(Zipf, SamplesStayInRange) {
  ZipfDistribution zipf(23, 0.8);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(rng), 23u);
}

TEST(Zipf, HeadRankSampledAtExpectedFrequency) {
  ZipfDistribution zipf(100, 1.0);
  Rng rng(2);
  constexpr int kDraws = 200000;
  int head = 0;
  for (int i = 0; i < kDraws; ++i) head += zipf.Sample(rng) == 0;
  EXPECT_NEAR(static_cast<double>(head) / kDraws, zipf.Pmf(0), 0.005);
}

TEST(Zipf, HigherExponentConcentratesHead) {
  Rng rng1(3);
  Rng rng2(3);
  ZipfDistribution flat(1000, 0.5);
  ZipfDistribution steep(1000, 1.2);
  int flat_head = 0;
  int steep_head = 0;
  for (int i = 0; i < 20000; ++i) {
    flat_head += flat.Sample(rng1) < 10;
    steep_head += steep.Sample(rng2) < 10;
  }
  EXPECT_GT(steep_head, flat_head * 2);
}

TEST(Zipf, SingleRankAlwaysZero) {
  ZipfDistribution zipf(1, 1.0);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

// --- scalar distributions -------------------------------------------------------

TEST(Exponential, MeanMatches) {
  Rng rng(6);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += SampleExponential(rng, 7.0);
  EXPECT_NEAR(sum / kDraws, 7.0, 0.1);
}

TEST(Exponential, AlwaysNonNegative) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(SampleExponential(rng, 2.0), 0.0);
  }
}

TEST(Lognormal, MeanMatches) {
  Rng rng(10);
  double sum = 0.0;
  constexpr int kDraws = 400000;
  for (int i = 0; i < kDraws; ++i) sum += SampleLognormal(rng, 100.0, 1.0);
  EXPECT_NEAR(sum / kDraws, 100.0, 3.0);
}

TEST(Lognormal, AlwaysPositive) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(SampleLognormal(rng, 5.0, 2.0), 0.0);
  }
}

TEST(StandardNormal, MeanAndVariance) {
  Rng rng(14);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = SampleStandardNormal(rng);
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.02);
}

TEST(Discrete, RespectsWeights) {
  DiscreteDistribution dist({1.0, 3.0, 0.0, 6.0});
  Rng rng(16);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[dist.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kDraws), 0.6, 0.01);
}

TEST(Discrete, SingleBucket) {
  DiscreteDistribution dist({5.0});
  Rng rng(18);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(dist.Sample(rng), 0u);
}

// --- formatting ------------------------------------------------------------------

TEST(Format, HumanBytesUnits) {
  EXPECT_EQ(HumanBytes(0), "0B");
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(1024), "1KB");
  EXPECT_EQ(HumanBytes(1536), "1.5KB");
  EXPECT_EQ(HumanBytes(1048576), "1MB");
  EXPECT_EQ(HumanBytes(5ull * 1024 * 1024 * 1024), "5GB");
}

TEST(Format, HumanDuration) {
  EXPECT_EQ(HumanDuration(0), "0ms");
  EXPECT_EQ(HumanDuration(kSecond), "1s");
  EXPECT_EQ(HumanDuration(90 * kSecond), "1m30s");
  EXPECT_EQ(HumanDuration(kDay + kHour + kMinute + kSecond), "1d1h1m1s");
  EXPECT_EQ(HumanDuration(500 * kMillisecond), "500ms");
}

TEST(Format, HumanDurationNegative) {
  EXPECT_EQ(HumanDuration(-kSecond), "-1s");
}

TEST(Format, Fixed) {
  EXPECT_EQ(Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(Fixed(2.0, 0), "2");
  EXPECT_EQ(Fixed(-1.5, 1), "-1.5");
}

TEST(Format, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(-1234), "-1,234");
}

// --- time helpers ------------------------------------------------------------------

TEST(Time, UnitRelations) {
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_EQ(kDay, 24 * kHour);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(ToMillis(kSecond), 1000.0);
  EXPECT_EQ(FromSeconds(2.5), 2 * kSecond + 500 * kMillisecond);
}

// --- FNV-1a ----------------------------------------------------------------------

TEST(Fnv1a, MatchesTheStandardVectors) {
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171f73967e8ULL);
  // A text hashed in pieces hashes as a whole.
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo")), Fnv1a("foobar"));
}

// --- mini JSON parser -----------------------------------------------------------

TEST(MiniJson, RawValueCapturesNestedValuesVerbatim) {
  // Objects and arrays come back as their exact text, brackets inside
  // strings ignored; scalars and strings come back as before.
  MiniJsonParser p(
      R"({"n": 12.5 , "s": "a\"b", "o": {"k": [1, "}]"], "e": {}},)"
      R"( "a": [[1], {"x": 2}], "t": true})");
  std::map<std::string, std::string> raw;
  ASSERT_TRUE(p.Consume('{'));
  while (!p.Peek('}')) {
    if (!raw.empty()) {
      ASSERT_TRUE(p.Consume(','));
    }
    std::string key;
    ASSERT_TRUE(p.ParseString(key));
    ASSERT_TRUE(p.Consume(':'));
    ASSERT_TRUE(p.ParseRawValue(raw[key])) << p.error();
  }
  EXPECT_EQ(raw["n"], "12.5");
  EXPECT_EQ(raw["s"], "a\"b");
  EXPECT_EQ(raw["o"], R"({"k": [1, "}]"], "e": {}})");
  EXPECT_EQ(raw["a"], R"([[1], {"x": 2}])");
  EXPECT_EQ(raw["t"], "true");

  std::string out;
  MiniJsonParser mismatched(R"({"k": [1})");
  EXPECT_FALSE(mismatched.ParseRawValue(out));
  EXPECT_NE(mismatched.error().find("mismatched bracket"), std::string::npos);
  MiniJsonParser unterminated(R"([1, "]")");
  EXPECT_FALSE(unterminated.ParseRawValue(out));
  EXPECT_NE(unterminated.error().find("unterminated value"), std::string::npos);
}

// --- IndexedHeap -------------------------------------------------------------

struct KeyedRecord {
  std::uint64_t key = 0;
  std::uint32_t id = 0;
};
struct KeyThenId {
  bool operator()(const KeyedRecord& a, const KeyedRecord& b) const {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  }
};

TEST(IndexedHeap, MatchesOrderedSetUnderRandomPushErasePop) {
  // 20,000 seeded steps on 300 ids against a std::set of (key, id). Half
  // the steps push (replacing the id's record when it is queued, as a TTL
  // re-arm does), a quarter erase (absent ids too), a quarter pop. Keys
  // repeat, so ties fall to the id. After every step top, size and Find of
  // every id agree with the set.
  constexpr std::uint32_t kIds = 300;
  IndexedHeap<KeyedRecord, KeyThenId> heap;
  std::set<std::pair<std::uint64_t, std::uint32_t>> model;
  std::vector<std::uint64_t> key_of(kIds, 0);
  std::vector<bool> queued(kIds, false);
  Rng rng(19);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<std::uint32_t>(rng.NextBelow(kIds));
    const std::uint64_t op = rng.NextBelow(4);
    if (op < 2) {
      if (queued[id]) {
        ASSERT_TRUE(heap.Erase(id));
        model.erase({key_of[id], id});
      }
      key_of[id] = rng.NextBelow(1000);
      heap.Push({key_of[id], id});
      model.insert({key_of[id], id});
      queued[id] = true;
    } else if (op == 2) {
      ASSERT_EQ(heap.Erase(id), queued[id]) << "step " << step;
      if (queued[id]) model.erase({key_of[id], id});
      queued[id] = false;
    } else if (!model.empty()) {
      const KeyedRecord top = heap.Pop();
      ASSERT_EQ(std::pair(top.key, top.id), *model.begin()) << "step " << step;
      model.erase(model.begin());
      queued[top.id] = false;
    }
    ASSERT_EQ(heap.size(), model.size()) << "step " << step;
    ASSERT_EQ(heap.empty(), model.empty());
    if (!model.empty()) {
      ASSERT_EQ(std::pair(heap.top().key, heap.top().id), *model.begin())
          << "step " << step;
    }
    for (std::uint32_t i = 0; i < kIds; ++i) {
      const KeyedRecord* found = heap.Find(i);
      ASSERT_EQ(found != nullptr, static_cast<bool>(queued[i]))
          << "step " << step << " id " << i;
      if (found != nullptr) {
        ASSERT_EQ(found->id, i);
        ASSERT_EQ(found->key, key_of[i]);
      }
    }
  }
}

}  // namespace
}  // namespace webcc::util
