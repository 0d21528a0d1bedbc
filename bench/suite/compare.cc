// webcc_bench compare A/ B/: medians, quartiles and a verdict for every
// (workload, metric) found in two sets of result files.
//
// A is the baseline. For a metric with a bound in the spec (BENCHMARK.json
// "end_to_end"), the verdict is
//   unresolved    the quartile spread of either side, as a share of its
//                 median, exceeds the bound, unless every B run is better
//                 than every A run (then improved);
//   regressed     B's median is worse than A's by more than the bound;
//   improved      B's median is better than A's by more than the bound;
//   within bound  otherwise.
// The result-file-only metrics (RunResult::file_only) take their bounds
// from kFileOnlyBounds. error_rate has bound 0: any rise of B's median over
// A's is a regression. Per-layer metrics have no bound and are listed for
// information only.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "util/mini_json.h"

namespace webcc::bench {
namespace {

struct Bound {
  bool lower_is_better = true;
  double share = 0.0;  // allowed worsening as a share of A's median
};

// live_loopback's untraced run writes the live_* metrics.
const std::pair<const char*, Bound> kFileOnlyBounds[] = {
    {"error_rate", {true, 0.0}},
    {"live_requests_per_s", {false, 0.10}},
    {"live_fetch_p50_us", {true, 0.10}},
    {"live_fetch_p99_us", {true, 0.15}},
    {"live_write_p50_us", {true, 0.10}},
    {"live_write_p90_us", {true, 0.15}},
};

bool SkipValue(util::MiniJsonParser& p);

// Calls `on_member(key)` for every member of the object at the cursor; the
// callback must consume the member's value.
template <typename F>
bool ParseObject(util::MiniJsonParser& p, F&& on_member) {
  if (!p.Consume('{')) return false;
  if (p.Peek('}')) return p.Consume('}');
  do {
    std::string key;
    if (!p.ParseString(key) || !p.Consume(':') || !on_member(key)) {
      return false;
    }
  } while (p.Peek(',') && p.Consume(','));
  return p.Consume('}');
}

template <typename F>
bool ParseArray(util::MiniJsonParser& p, F&& on_element) {
  if (!p.Consume('[')) return false;
  if (p.Peek(']')) return p.Consume(']');
  do {
    if (!on_element()) return false;
  } while (p.Peek(',') && p.Consume(','));
  return p.Consume(']');
}

bool SkipValue(util::MiniJsonParser& p) {
  if (p.Peek('{')) {
    return ParseObject(p, [&](const std::string&) { return SkipValue(p); });
  }
  if (p.Peek('[')) return ParseArray(p, [&] { return SkipValue(p); });
  std::string raw;
  return p.ParseRawValue(raw);
}

// A one-line object's scalar members as raw text; nested values skipped.
bool ParseFlat(std::string_view line, std::map<std::string, std::string>& out) {
  util::MiniJsonParser p(line);
  return ParseObject(p, [&](const std::string& key) {
    if (p.Peek('{') || p.Peek('[')) return SkipValue(p);
    return p.ParseRawValue(out[key]);
  });
}

bool ReadBounds(const std::string& path, std::map<std::string, Bound>& bounds) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in) return false;
  const std::string spec = text.str();
  util::MiniJsonParser p(spec);
  return ParseObject(p, [&](const std::string& key) {
    if (key != "end_to_end") return SkipValue(p);
    return ParseArray(p, [&] {
      std::string name;
      Bound bound;
      const bool ok = ParseObject(p, [&](const std::string& field) {
        std::string raw;
        if (!p.ParseRawValue(raw)) return false;
        if (field == "name") name = raw;
        if (field == "better") bound.lower_is_better = raw == "lower";
        if (field == "bound") bound.share = std::strtod(raw.c_str(), nullptr);
        return true;
      });
      bounds[name] = bound;
      return ok;
    });
  });
}

using Key = std::pair<std::string, std::string>;  // (workload, metric)

struct Samples {
  std::map<Key, std::vector<double>> values;
  std::map<Key, std::string> units;
  std::size_t files = 0;
};

bool ReadResults(const std::string& dir, Samples& samples) {
  std::error_code error;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      files.push_back(entry.path());
    }
  }
  if (error) {
    std::fprintf(stderr, "webcc_bench: cannot read %s\n", dir.c_str());
    return false;
  }
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      std::map<std::string, std::string> fields;
      if (!ParseFlat(line, fields) || fields.count("workload") == 0 ||
          fields.count("metric") == 0 || fields.count("value") == 0) {
        continue;
      }
      const Key key{fields["workload"], fields["metric"]};
      samples.values[key].push_back(std::strtod(fields["value"].c_str(), nullptr));
      samples.units[key] = fields["unit"];
    }
    ++samples.files;
  }
  return true;
}

struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0, min = 0.0, max = 0.0;
  double spread() const { return Ratio(q3 - q1, std::fabs(median)); }
};

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.median = Median(values);
  Quartiles(values, s.q1, s.q3);
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  return s;
}

}  // namespace

int Compare(const std::string& dir_a, const std::string& dir_b,
            const std::string& spec_path) {
  std::map<std::string, Bound> bounds;
  if (!ReadBounds(spec_path, bounds)) {
    std::fprintf(stderr, "webcc_bench: cannot read bounds from %s\n",
                 spec_path.c_str());
    return 2;
  }
  for (const auto& [name, bound] : kFileOnlyBounds) bounds[name] = bound;
  Samples a, b;
  if (!ReadResults(dir_a, a) || !ReadResults(dir_b, b)) return 2;
  std::printf("A: %s (%zu files)   B: %s (%zu files)\n", dir_a.c_str(),
              a.files, dir_b.c_str(), b.files);
  std::printf("%-14s %-38s %-34s %-34s %8s %6s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "bound",
              "verdict");

  std::map<Key, bool> keys;
  for (const auto& [key, unused] : a.values) keys[key] = true;
  for (const auto& [key, unused] : b.values) keys[key] = true;
  int regressions = 0;
  for (const auto& [key, unused] : keys) {
    const auto in_a = a.values.find(key);
    const auto in_b = b.values.find(key);
    if (in_a == a.values.end() || in_b == b.values.end()) {
      std::printf("%-14s %-38s only in %s\n", key.first.c_str(),
                  key.second.c_str(), in_a == a.values.end() ? "B" : "A");
      continue;
    }
    const Summary sa = Summarize(in_a->second);
    const Summary sb = Summarize(in_b->second);
    const auto bound = bounds.find(key.second);
    const bool lower = bound == bounds.end() || bound->second.lower_is_better;
    const double change = sa.median != 0.0
                              ? (sb.median - sa.median) / std::fabs(sa.median)
                              : (sb.median == 0.0 ? 0.0 : INFINITY);
    const double worse = lower ? change : -change;
    std::string verdict;
    if (bound == bounds.end()) {
      verdict = "info (no bound)";
    } else if (key.second == "error_rate") {
      verdict = sb.median > sa.median ? "regressed" : "within bound";
    } else {
      const double share = bound->second.share;
      const bool all_better = lower ? sb.max < sa.min : sb.min > sa.max;
      if (std::max(sa.spread(), sb.spread()) > share) {
        verdict = all_better ? "improved" : "unresolved";
      } else if (worse > share) {
        verdict = "regressed";
      } else if (-worse > share) {
        verdict = "improved";
      } else {
        verdict = "within bound";
      }
    }
    if (verdict == "regressed") ++regressions;
    char cell_a[64], cell_b[64], bound_text[16] = "-";
    std::snprintf(cell_a, sizeof(cell_a), "%.6g [%.6g, %.6g]", sa.median,
                  sa.q1, sa.q3);
    std::snprintf(cell_b, sizeof(cell_b), "%.6g [%.6g, %.6g]", sb.median,
                  sb.q1, sb.q3);
    if (bound != bounds.end()) {
      std::snprintf(bound_text, sizeof(bound_text), "%.0f%%",
                    100.0 * bound->second.share);
    }
    std::printf("%-14s %-38s %-34s %-34s %+7.2f%% %6s  %s (%s, n=%zu/%zu)\n",
                key.first.c_str(), key.second.c_str(), cell_a, cell_b,
                100.0 * change, bound_text, verdict.c_str(),
                a.units[key].c_str(), in_a->second.size(),
                in_b->second.size());
  }
  std::printf("%d regression(s)\n", regressions);
  return regressions > 0 ? 1 : 0;
}

}  // namespace webcc::bench
