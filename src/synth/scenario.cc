#include "synth/scenario.h"

#include <algorithm>
#include <cstdio>

#include "util/mini_json.h"

namespace webcc::synth {
namespace {

struct KindName {
  PhaseKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {PhaseKind::kSteady, "steady"},
    {PhaseKind::kFlashCrowd, "flash_crowd"},
    {PhaseKind::kDiurnal, "diurnal"},
    {PhaseKind::kWriteBurst, "write_burst"},
};

// Every numeric field is emitted with %.6f (or as a decimal integer) and
// validated into ranges where a %.6f round-trip is exact (<= 15 significant
// digits), so parse -> serialize -> parse is a fixpoint — the property the
// fuzz harness (fuzz/fuzz_scenario.cc) asserts.
std::string TimeToSecondsText(Time t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", ToSeconds(t));
  return buf;
}

std::string DoubleToJson(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

using Parser = util::MiniJsonParser;
using util::ParseCountField;
using util::ParseTimeField;

bool ParsePhaseObject(Parser& p, Phase& phase) {
  if (!p.Consume('{')) return false;
  bool first = true;
  while (!p.Peek('}')) {
    if (!first && !p.Consume(',')) return false;
    first = false;
    std::string key;
    if (!p.ParseString(key)) return false;
    if (!p.Consume(':')) return false;
    if (key == "kind") {
      std::string name;
      if (!p.ParseString(name)) return false;
      if (!ParsePhaseKindName(name, phase.kind)) {
        return p.Fail("unknown phase kind '" + name + "'");
      }
    } else if (key == "start_s") {
      if (!ParseTimeField(p, key, phase.start)) return false;
    } else if (key == "duration_s") {
      if (!ParseTimeField(p, key, phase.duration)) return false;
    } else if (key == "rate_multiplier") {
      if (!p.ParseNumber(phase.rate_multiplier)) return false;
    } else if (key == "write_multiplier") {
      if (!p.ParseNumber(phase.write_multiplier)) return false;
    } else if (key == "focus") {
      if (!p.ParseNumber(phase.focus)) return false;
    } else if (key == "hot_docs") {
      std::uint64_t v = 0;
      if (!ParseCountField(p, key, 1e8, v)) return false;
      phase.hot_docs = static_cast<std::uint32_t>(v);
    } else if (key == "amplitude") {
      if (!p.ParseNumber(phase.amplitude)) return false;
    } else if (key == "period_s") {
      if (!ParseTimeField(p, key, phase.period)) return false;
    } else {
      return p.Fail("unknown phase key '" + key + "'");
    }
  }
  return p.Consume('}');
}

bool ParseScenarioBody(Parser& p, ScenarioConfig& config,
                       std::map<std::string, std::string>* expect) {
  if (!p.Consume('{')) return false;
  bool first = true;
  while (!p.Peek('}')) {
    if (!first && !p.Consume(',')) return false;
    first = false;
    std::string key;
    if (!p.ParseString(key)) return false;
    if (!p.Consume(':')) return false;
    std::uint64_t count = 0;
    if (key == "name") {
      if (!p.ParseString(config.name)) return false;
    } else if (key == "duration_s") {
      if (!ParseTimeField(p, key, config.duration)) return false;
    } else if (key == "requests") {
      if (!ParseCountField(p, key, 1e9, config.requests)) return false;
    } else if (key == "sites") {
      if (!ParseCountField(p, key, 1e8, count)) return false;
      config.sites = static_cast<std::uint32_t>(count);
    } else if (key == "documents") {
      if (!ParseCountField(p, key, 1e8, count)) return false;
      config.documents = static_cast<std::uint32_t>(count);
    } else if (key == "origins") {
      if (!ParseCountField(p, key, 1e6, count)) return false;
      config.origins = static_cast<std::uint32_t>(count);
    } else if (key == "doc_zipf") {
      if (!p.ParseNumber(config.doc_zipf)) return false;
    } else if (key == "site_zipf") {
      if (!p.ParseNumber(config.site_zipf)) return false;
    } else if (key == "write_fraction") {
      if (!p.ParseNumber(config.write_fraction)) return false;
    } else if (key == "write_zipf") {
      if (!p.ParseNumber(config.write_zipf)) return false;
    } else if (key == "locality") {
      if (!p.ParseNumber(config.locality)) return false;
    } else if (key == "stack_theta") {
      if (!p.ParseNumber(config.stack_theta)) return false;
    } else if (key == "stack_depth") {
      if (!ParseCountField(p, key, 1e6, count)) return false;
      config.stack_depth = static_cast<std::uint32_t>(count);
    } else if (key == "mean_size_bytes") {
      if (!p.ParseNumber(config.mean_size_bytes)) return false;
    } else if (key == "size_sigma") {
      if (!p.ParseNumber(config.size_sigma)) return false;
    } else if (key == "min_size_bytes") {
      if (!ParseCountField(p, key, 1e15, config.min_size_bytes)) return false;
    } else if (key == "max_size_bytes") {
      if (!ParseCountField(p, key, 1e15, config.max_size_bytes)) return false;
    } else if (key == "churn_fraction") {
      if (!p.ParseNumber(config.churn_fraction)) return false;
    } else if (key == "seed") {
      if (!ParseCountField(p, key, 9e15, config.seed)) return false;
    } else if (key == "phases") {
      if (!p.Consume('[')) return false;
      bool first_phase = true;
      while (!p.Peek(']')) {
        if (!first_phase && !p.Consume(',')) return false;
        first_phase = false;
        Phase phase;
        if (!ParsePhaseObject(p, phase)) return false;
        config.phases.push_back(phase);
      }
      if (!p.Consume(']')) return false;
    } else if (key == "expect" && expect != nullptr) {
      if (!p.Consume('{')) return false;
      bool first_pair = true;
      while (!p.Peek('}')) {
        if (!first_pair && !p.Consume(',')) return false;
        first_pair = false;
        std::string metric;
        if (!p.ParseString(metric)) return false;
        if (!p.Consume(':')) return false;
        std::string raw;
        if (!p.ParseRawValue(raw)) return false;
        (*expect)[metric] = raw;
      }
      if (!p.Consume('}')) return false;
    } else {
      return p.Fail("unknown scenario key '" + key + "'");
    }
  }
  if (!p.Consume('}')) return false;
  if (!p.AtEnd()) return p.Fail("trailing text after scenario");
  return true;
}

// Shared by FromJson and ParseScenarioFile: parse, canonicalize, validate.
bool ParseAndValidate(std::string_view text, ScenarioConfig& config,
                      std::map<std::string, std::string>* expect,
                      std::string& error) {
  Parser parser(text);
  ScenarioConfig parsed;
  if (!ParseScenarioBody(parser, parsed, expect)) {
    error = parser.error();
    return false;
  }
  Canonicalize(parsed);
  error = Validate(parsed);
  if (!error.empty()) return false;
  config = std::move(parsed);
  return true;
}

bool InUnit(double v) { return v >= 0.0 && v <= 1.0; }
bool ExponentOk(double v) { return v >= 0.0 && v <= 8.0; }

}  // namespace

std::string_view PhaseKindName(PhaseKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

bool ParsePhaseKindName(std::string_view name, PhaseKind& out) {
  for (const KindName& entry : kKindNames) {
    if (entry.name == name) {
      out = entry.kind;
      return true;
    }
  }
  return false;
}

std::string Validate(const ScenarioConfig& config) {
  if (config.duration <= 0) return "duration_s must be positive";
  if (config.requests < 1) return "requests must be >= 1";
  if (config.sites < 1) return "sites must be >= 1";
  if (config.sites > 16777215u) {
    return "sites must fit the dotted-quad identifier space (<= 16777215)";
  }
  if (config.documents < 1) return "documents must be >= 1";
  if (config.origins < 1 || config.origins > config.documents) {
    return "origins must be in [1, documents]";
  }
  if (!ExponentOk(config.doc_zipf)) return "doc_zipf must be in [0, 8]";
  if (!ExponentOk(config.site_zipf)) return "site_zipf must be in [0, 8]";
  if (!(config.write_fraction >= 0.0 && config.write_fraction <= 0.9)) {
    return "write_fraction must be in [0, 0.9]";
  }
  if (!ExponentOk(config.write_zipf)) return "write_zipf must be in [0, 8]";
  if (!InUnit(config.locality)) return "locality must be in [0, 1]";
  if (!ExponentOk(config.stack_theta)) return "stack_theta must be in [0, 8]";
  if (config.stack_depth < 1 || config.stack_depth > 4096) {
    return "stack_depth must be in [1, 4096]";
  }
  if (!(config.mean_size_bytes >= 1.0 && config.mean_size_bytes <= 1.0e8)) {
    return "mean_size_bytes must be in [1, 1e8]";
  }
  if (!ExponentOk(config.size_sigma)) return "size_sigma must be in [0, 8]";
  if (config.min_size_bytes < 1 ||
      config.min_size_bytes > config.max_size_bytes) {
    return "need 1 <= min_size_bytes <= max_size_bytes";
  }
  if (!InUnit(config.churn_fraction)) {
    return "churn_fraction must be in [0, 1]";
  }
  for (const Phase& phase : config.phases) {
    if (phase.start < 0 || phase.start > config.duration) {
      return "phase start_s must be within [0, duration_s]";
    }
    if (!(phase.rate_multiplier >= 0.0 && phase.rate_multiplier <= 1.0e6)) {
      return "phase rate_multiplier must be in [0, 1e6]";
    }
    if (!(phase.write_multiplier >= 0.0 && phase.write_multiplier <= 1.0e6)) {
      return "phase write_multiplier must be in [0, 1e6]";
    }
    if (!InUnit(phase.focus)) return "phase focus must be in [0, 1]";
    if (phase.hot_docs < 1) return "phase hot_docs must be >= 1";
    if (!(phase.amplitude >= 0.0 && phase.amplitude <= 10.0)) {
      return "phase amplitude must be in [0, 10]";
    }
    if (phase.kind == PhaseKind::kDiurnal && phase.period <= 0) {
      return "diurnal phase period_s must be positive";
    }
  }
  return "";
}

void Canonicalize(ScenarioConfig& config) {
  std::stable_sort(config.phases.begin(), config.phases.end(),
                   [](const Phase& a, const Phase& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.kind < b.kind;
                   });
}

std::string ToJson(const ScenarioConfig& config) {
  ScenarioConfig canonical = config;
  Canonicalize(canonical);
  std::string out = "{\n  \"name\": \"" + canonical.name + "\",\n";
  out += "  \"duration_s\": " + TimeToSecondsText(canonical.duration) + ",\n";
  out += "  \"requests\": " + std::to_string(canonical.requests) + ",\n";
  out += "  \"sites\": " + std::to_string(canonical.sites) + ",\n";
  out += "  \"documents\": " + std::to_string(canonical.documents) + ",\n";
  out += "  \"origins\": " + std::to_string(canonical.origins) + ",\n";
  out += "  \"doc_zipf\": " + DoubleToJson(canonical.doc_zipf) + ",\n";
  out += "  \"site_zipf\": " + DoubleToJson(canonical.site_zipf) + ",\n";
  out += "  \"write_fraction\": " + DoubleToJson(canonical.write_fraction) +
         ",\n";
  out += "  \"write_zipf\": " + DoubleToJson(canonical.write_zipf) + ",\n";
  out += "  \"locality\": " + DoubleToJson(canonical.locality) + ",\n";
  out += "  \"stack_theta\": " + DoubleToJson(canonical.stack_theta) + ",\n";
  out += "  \"stack_depth\": " + std::to_string(canonical.stack_depth) + ",\n";
  out += "  \"mean_size_bytes\": " + DoubleToJson(canonical.mean_size_bytes) +
         ",\n";
  out += "  \"size_sigma\": " + DoubleToJson(canonical.size_sigma) + ",\n";
  out += "  \"min_size_bytes\": " + std::to_string(canonical.min_size_bytes) +
         ",\n";
  out += "  \"max_size_bytes\": " + std::to_string(canonical.max_size_bytes) +
         ",\n";
  out += "  \"churn_fraction\": " + DoubleToJson(canonical.churn_fraction) +
         ",\n";
  out += "  \"seed\": " + std::to_string(canonical.seed) + ",\n";
  out += "  \"phases\": [";
  for (std::size_t i = 0; i < canonical.phases.size(); ++i) {
    const Phase& phase = canonical.phases[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": \"";
    out += PhaseKindName(phase.kind);
    out += "\", \"start_s\": " + TimeToSecondsText(phase.start);
    out += ", \"duration_s\": " + TimeToSecondsText(phase.duration);
    out += ", \"rate_multiplier\": " + DoubleToJson(phase.rate_multiplier);
    out += ", \"write_multiplier\": " + DoubleToJson(phase.write_multiplier);
    out += ", \"focus\": " + DoubleToJson(phase.focus);
    out += ", \"hot_docs\": " + std::to_string(phase.hot_docs);
    if (phase.kind == PhaseKind::kDiurnal) {
      out += ", \"amplitude\": " + DoubleToJson(phase.amplitude);
      out += ", \"period_s\": " + TimeToSecondsText(phase.period);
    }
    out += "}";
  }
  out += canonical.phases.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool FromJson(std::string_view text, ScenarioConfig& out, std::string& error) {
  return ParseAndValidate(text, out, nullptr, error);
}

bool ParseScenarioFile(std::string_view text, ScenarioFile& out,
                       std::string& error) {
  ScenarioFile file;
  if (!ParseAndValidate(text, file.config, &file.expect, error)) return false;
  out = std::move(file);
  return true;
}

}  // namespace webcc::synth
