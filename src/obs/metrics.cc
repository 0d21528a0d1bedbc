#include "obs/metrics.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace webcc::obs {
namespace {

// Doubles print with %.17g: round-trippable and locale-independent, so the
// dump is byte-stable across runs and platforms.
void AppendDouble(std::string& out, double v) {
  std::array<char, 40> buf{};
  const int n = std::snprintf(buf.data(), buf.size(), "%.17g", v);
  if (n > 0) out.append(buf.data(), static_cast<std::size_t>(n));
}

void AppendQuoted(std::string& out, std::string_view name) {
  out += '"';
  // Metric names are code-chosen identifiers (dotted ASCII); no escaping
  // beyond the quote is needed, but guard against it anyway.
  for (const char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

// The value stored under `name`, value-initialized when absent.
template <typename Value>
Value& Slot(std::map<std::string, Value, std::less<>>& map,
            std::string_view name) {
  const auto it = map.find(name);
  if (it != map.end()) return it->second;
  return map.emplace(std::string(name), Value{}).first->second;
}

}  // namespace

void MetricsRegistry::SetCounter(std::string_view name, std::uint64_t value) {
  Slot(counters_, name) = value;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  Slot(gauges_, name) = value;
}

void MetricsRegistry::MergeHistogram(std::string_view name,
                                     const stats::LatencyStats& samples) {
  Slot(histograms_, name).Merge(samples);
}

std::uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0.0;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other,
                                std::string_view prefix) {
  std::string name;
  const auto prefixed = [&name, &prefix](const std::string& leaf) -> const std::string& {
    name.assign(prefix);
    name += leaf;
    return name;
  };
  for (const auto& [leaf, value] : other.counters_) {
    Slot(counters_, prefixed(leaf)) += value;
  }
  for (const auto& [leaf, samples] : other.histograms_) {
    Slot(histograms_, prefixed(leaf)).Merge(samples);
  }
  for (const auto& [leaf, value] : other.gauges_) {
    Slot(gauges_, prefixed(leaf)) = value;
  }
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  // Merge the three sorted maps by key so the object's keys are globally
  // sorted regardless of metric kind.
  std::string body = "{\n";
  auto ci = counters_.begin();
  auto hi = histograms_.begin();
  auto gi = gauges_.begin();
  bool first = true;
  while (ci != counters_.end() || hi != histograms_.end() ||
         gi != gauges_.end()) {
    // Pick the lexicographically smallest pending key.
    enum { kCounter, kHistogram, kGauge } which = kCounter;
    const std::string* key = nullptr;
    if (ci != counters_.end()) {
      key = &ci->first;
      which = kCounter;
    }
    if (hi != histograms_.end() && (key == nullptr || hi->first < *key)) {
      key = &hi->first;
      which = kHistogram;
    }
    if (gi != gauges_.end() && (key == nullptr || gi->first < *key)) {
      key = &gi->first;
      which = kGauge;
    }
    if (!first) body += ",\n";
    first = false;
    body += "  ";
    AppendQuoted(body, *key);
    body += ": ";
    switch (which) {
      case kCounter:
        body += std::to_string(ci->second);
        ++ci;
        break;
      case kGauge:
        AppendDouble(body, gi->second);
        ++gi;
        break;
      case kHistogram: {
        const stats::LatencyStats& s = hi->second;
        body += "{\"count\":";
        body += std::to_string(s.count());
        body += ",\"mean\":";
        AppendDouble(body, s.mean());
        body += ",\"min\":";
        AppendDouble(body, s.min());
        body += ",\"max\":";
        AppendDouble(body, s.max());
        body += ",\"p50\":";
        AppendDouble(body, s.Percentile(50));
        body += ",\"p95\":";
        AppendDouble(body, s.Percentile(95));
        body += ",\"p99\":";
        AppendDouble(body, s.Percentile(99));
        body += '}';
        ++hi;
        break;
      }
    }
  }
  body += "\n}\n";
  out << body;
}

}  // namespace webcc::obs
