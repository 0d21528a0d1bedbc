#include "fault/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/mini_json.h"
#include "util/rng.h"

namespace webcc::fault {
namespace {

struct KindName {
  FaultKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kProxyCrash, "proxy_crash"},
    {FaultKind::kServerCrash, "server_crash"},
    {FaultKind::kPartition, "partition"},
    {FaultKind::kLinkFault, "link_fault"},
};

// Formats a Time as fractional seconds with microsecond precision — the
// exact inverse of util::ParseTimeField, so plans round-trip losslessly.
std::string TimeToSeconds(Time t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", ToSeconds(t));
  return buf;
}

std::string DoubleToJson(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

// The fixed dialect ToJson emits parses with the shared mini-JSON parser
// (util/mini_json.h); goldens are written in the same dialect. Times lie in
// [0, util::kMaxFieldSeconds], a target is an integer >= -1 and a
// probability lies in [0, 1]; anything else fails as "<key> out of range".
using Parser = util::MiniJsonParser;
using util::ParseNumberField;
using util::ParseTimeField;

bool ParseEventObject(Parser& p, FaultEvent& event) {
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
      if (!ParseFaultKindName(name, event.kind)) {
        return p.Fail("unknown fault kind '" + name + "'");
      }
    } else if (key == "at_s") {
      if (!ParseTimeField(p, key, event.at)) return false;
    } else if (key == "duration_s") {
      if (!ParseTimeField(p, key, event.duration)) return false;
    } else if (key == "target") {
      double v = 0;
      if (!ParseNumberField(p, key, -1.0, std::numeric_limits<int>::max(),
                            v)) {
        return false;
      }
      if (v != std::floor(v)) return p.Fail("target out of range");
      event.target = static_cast<int>(v);
    } else if (key == "drop") {
      if (!ParseNumberField(p, key, 0.0, 1.0, event.drop)) return false;
    } else if (key == "duplicate") {
      if (!ParseNumberField(p, key, 0.0, 1.0, event.duplicate)) return false;
    } else if (key == "extra_delay_s") {
      if (!ParseTimeField(p, key, event.extra_delay)) return false;
    } else {
      return p.Fail("unknown event key '" + key + "'");
    }
  }
  return p.Consume('}');
}

bool ParsePlanBody(Parser& p, FaultPlan& plan,
                   std::map<std::string, std::string>* expect) {
  if (!p.Consume('{')) return false;
  bool first = true;
  while (!p.Peek('}')) {
    if (!first && !p.Consume(',')) return false;
    first = false;
    std::string key;
    if (!p.ParseString(key)) return false;
    if (!p.Consume(':')) return false;
    if (key == "name") {
      if (!p.ParseString(plan.name)) return false;
    } else if (key == "events") {
      if (!p.Consume('[')) return false;
      bool first_event = true;
      while (!p.Peek(']')) {
        if (!first_event && !p.Consume(',')) return false;
        first_event = false;
        FaultEvent event;
        if (!ParseEventObject(p, event)) return false;
        plan.events.push_back(event);
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
      return p.Fail("unknown plan key '" + key + "'");
    }
  }
  if (!p.Consume('}')) return false;
  if (!p.AtEnd()) return p.Fail("trailing text after plan");
  return true;
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

bool ParseFaultKindName(std::string_view name, FaultKind& out) {
  for (const KindName& entry : kKindNames) {
    if (entry.name == name) {
      out = entry.kind;
      return true;
    }
  }
  return false;
}

void Canonicalize(FaultPlan& plan) {
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.target < b.target;
                   });
}

FaultPlan Random(const RandomPlanConfig& config, std::uint64_t seed) {
  util::Rng rng(seed);
  FaultPlan plan;
  plan.name = "random_seed_" + std::to_string(seed);
  const auto draw_start = [&] {
    return static_cast<Time>(
        rng.NextBelow(static_cast<std::uint64_t>(config.horizon)));
  };
  const auto draw_duration = [&] {
    return kRandomMinDuration +
           static_cast<Time>(rng.NextBelow(static_cast<std::uint64_t>(
               kRandomMaxDuration - kRandomMinDuration + 1)));
  };
  const auto draw_target = [&] {
    return static_cast<int>(
        rng.NextBelow(static_cast<std::uint64_t>(config.clients)));
  };
  for (int i = 0; i < kRandomCrashEvents; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kProxyCrash;
    event.at = draw_start();
    event.duration = draw_duration();
    event.target = draw_target();
    plan.events.push_back(event);
  }
  if (config.allow_server_crash && rng.NextBool(0.5)) {
    FaultEvent event;
    event.kind = FaultKind::kServerCrash;
    event.at = draw_start();
    event.duration = draw_duration();
    plan.events.push_back(event);
  }
  for (int i = 0; i < kRandomPartitionEvents; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kPartition;
    event.at = draw_start();
    event.duration = draw_duration();
    // One partition in five cuts every proxy-server link at once.
    event.target = rng.NextBool(0.2) ? -1 : draw_target();
    plan.events.push_back(event);
  }
  for (int i = 0; i < kRandomLinkWindows; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kLinkFault;
    event.at = draw_start();
    event.duration = draw_duration();
    event.target = rng.NextBool(0.3) ? -1 : draw_target();
    event.drop = rng.NextDouble() * kRandomMaxDrop;
    event.duplicate = rng.NextDouble() * kRandomMaxDuplicate;
    if (rng.NextBool(0.5)) {
      event.extra_delay = static_cast<Time>(rng.NextBelow(
          static_cast<std::uint64_t>(kRandomMaxExtraDelay + 1)));
    }
    plan.events.push_back(event);
  }
  Canonicalize(plan);
  return plan;
}

std::string ToJson(const FaultPlan& plan) {
  FaultPlan canonical = plan;
  Canonicalize(canonical);
  std::string out = "{\n  \"name\": \"" + canonical.name + "\",\n";
  out += "  \"events\": [";
  for (std::size_t i = 0; i < canonical.events.size(); ++i) {
    const FaultEvent& event = canonical.events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": \"";
    out += FaultKindName(event.kind);
    out += "\", \"at_s\": " + TimeToSeconds(event.at);
    out += ", \"target\": " + std::to_string(event.target);
    out += ", \"duration_s\": " + TimeToSeconds(event.duration);
    if (event.kind == FaultKind::kLinkFault) {
      out += ", \"drop\": " + DoubleToJson(event.drop);
      out += ", \"duplicate\": " + DoubleToJson(event.duplicate);
      out += ", \"extra_delay_s\": " + TimeToSeconds(event.extra_delay);
    }
    out += "}";
  }
  out += canonical.events.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool FromJson(std::string_view text, FaultPlan& out, std::string& error) {
  Parser parser(text);
  FaultPlan plan;
  if (!ParsePlanBody(parser, plan, nullptr)) {
    error = parser.error();
    return false;
  }
  Canonicalize(plan);
  out = std::move(plan);
  return true;
}

bool ParseFaultPlanFile(std::string_view text, FaultPlanFile& out,
                        std::string& error) {
  Parser parser(text);
  FaultPlanFile file;
  if (!ParsePlanBody(parser, file.plan, &file.expect)) {
    error = parser.error();
    return false;
  }
  Canonicalize(file.plan);
  out = std::move(file);
  return true;
}

}  // namespace webcc::fault
