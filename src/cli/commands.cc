#include "cli/commands.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/piggyback.h"
#include "fault/plan.h"
#include "obs/metrics.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "replay/farm.h"
#include "stats/table.h"
#include "synth/generate.h"
#include "synth/scenario.h"
#include "trace/clf.h"
#include "trace/filter.h"
#include "trace/presets.h"
#include "trace/summary.h"
#include "trace/workload.h"
#include "util/format.h"

namespace webcc::cli {
namespace {

std::optional<trace::TraceName> ParsePreset(const std::string& name) {
  for (const trace::TraceName preset : trace::AllTraces()) {
    if (name == trace::ToString(preset)) return preset;
  }
  return std::nullopt;
}

// Every input problem — unreadable path, malformed config, invalid scenario
// — funnels through here so all commands fail the same actionable way:
// which input, what went wrong, what to do about it.
void ReportInputError(std::ostream& err, const std::string& input,
                      const std::string& problem, const std::string& hint) {
  err << "error: " << input << ": " << problem << "\n";
  if (!hint.empty()) err << "  hint: " << hint << "\n";
}

// A generated scenario replays as its trace plus its write stream, even an
// empty one: a read-only scenario must not fall back to the mean-lifetime
// modifier process.
void ReplayWorkload(const synth::SynthWorkload& workload,
                    replay::ReplayConfig& config) {
  config.trace = &workload.trace;
  config.explicit_modifications = workload.writes;
  config.suppress_generated_modifications = true;
}

// "cannot open (No such file or directory)"-style problem text for a path
// that failed to open; errno is only meaningful right after the failure.
std::string CannotOpenProblem() {
  return std::string("cannot open (") + std::strerror(errno) + ")";
}

bool ReadFileText(const std::string& path, std::string& text,
                  std::string& problem) {
  std::ifstream in(path);
  if (!in) {
    problem = CannotOpenProblem();
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  text = buffer.str();
  return true;
}

// Loads a scenario JSON file (the `webcc synth` / `replay --scenario`
// input); reports its own errors.
bool LoadScenarioFile(const std::string& path, synth::ScenarioFile& out,
                      std::ostream& err) {
  std::string text;
  std::string problem;
  if (!ReadFileText(path, text, problem)) {
    ReportInputError(err, path, problem,
                     "check the path; example scenarios live under "
                     "tests/data/scenarios/");
    return false;
  }
  if (!synth::ParseScenarioFile(text, out, problem)) {
    ReportInputError(err, path, problem,
                     "see DESIGN.md section 14 for the scenario JSON "
                     "dialect and valid ranges");
    return false;
  }
  return true;
}

// Loads the input trace per the --preset/--in flags shared by several
// commands; reports its own errors.
std::optional<trace::Trace> LoadTrace(const Flags& flags, std::ostream& err) {
  const std::string preset_name = flags.GetString("preset", "");
  const std::string in_path = flags.GetString("in", "");
  if (!preset_name.empty() && !in_path.empty()) {
    err << "error: --preset and --in are mutually exclusive\n";
    return std::nullopt;
  }
  if (!preset_name.empty()) {
    const auto preset = ParsePreset(preset_name);
    if (!preset.has_value()) {
      err << "error: unknown preset '" << preset_name
          << "' (try EPA, SDSC, ClarkNet, NASA, SASK)\n";
      return std::nullopt;
    }
    return trace::GenerateTrace(trace::GetPreset(*preset).workload);
  }
  if (!in_path.empty()) {
    std::ifstream in(in_path);
    if (!in) {
      ReportInputError(err, in_path, CannotOpenProblem(),
                       "check the path, or use --preset NAME for a built-in "
                       "workload (EPA, SDSC, ClarkNet, NASA, SASK)");
      return std::nullopt;
    }
    trace::ClfParseStats stats;
    trace::Trace trace = trace::ReadClf(in, in_path, &stats);
    if (trace.records.empty()) {
      err << "error: no usable GET records in " << in_path << " ("
          << stats.malformed << " malformed lines)\n";
      return std::nullopt;
    }
    if (stats.malformed > 0 || stats.skipped > 0) {
      err << "note: " << in_path << ": skipped " << stats.skipped
          << " non-GET and " << stats.malformed << " malformed line(s)\n";
    }
    return trace;
  }
  err << "error: need --preset NAME or --in FILE\n";
  return std::nullopt;
}

// Short metric-key token per protocol (the display names in
// core::ToString carry spaces and parentheses).
const char* ProtocolToken(core::Protocol protocol) {
  switch (protocol) {
    case core::Protocol::kAdaptiveTtl:
      return "ttl";
    case core::Protocol::kPollEveryTime:
      return "poll";
    case core::Protocol::kInvalidation:
      return "invalidation";
    case core::Protocol::kPiggybackValidation:
      return "pcv";
    case core::Protocol::kPiggybackInvalidation:
      return "psi";
  }
  return "unknown";
}

// A fault-plan event's target must name one of the replay's `proxies`
// pseudo-clients; a partition or link fault may say -1 for all of them, and
// a server crash has none.
bool TargetNamesPseudoClient(const fault::FaultEvent& event, int proxies) {
  if (event.kind == fault::FaultKind::kServerCrash) return true;
  const int lowest = event.kind == fault::FaultKind::kProxyCrash ? 0 : -1;
  return event.target >= lowest && event.target < proxies;
}

bool RejectUnusedFlags(const Flags& flags, std::ostream& err) {
  const auto unused = flags.UnusedFlags();
  if (unused.empty()) return false;
  err << "error: unknown flag(s):";
  for (const std::string& name : unused) err << " --" << name;
  err << "\n";
  return true;
}

void PrintSummary(const trace::Trace& trace, std::ostream& out) {
  const trace::TraceSummary summary = trace::Summarize(trace);
  stats::Table table({"Statistic", "Value"});
  table.AddRow({"Trace", trace.name});
  table.AddRow({"Duration", util::HumanDuration(trace.duration)});
  table.AddRow({"Total requests",
                util::WithCommas(static_cast<std::int64_t>(
                    summary.total_requests))});
  table.AddRow({"Requested files",
                util::WithCommas(static_cast<std::int64_t>(
                    summary.num_files))});
  table.AddRow({"Avg file size",
                util::HumanBytes(static_cast<std::uint64_t>(
                    summary.avg_file_size_bytes))});
  table.AddRow({"File popularity (max)",
                util::WithCommas(static_cast<std::int64_t>(
                    summary.max_popularity))});
  table.AddRow({"File popularity (avg)",
                util::Fixed(summary.avg_popularity, 1)});
  table.AddRow({"Repeat-request fraction",
                util::Fixed(summary.repeat_request_fraction, 3)});
  out << table.Render();
}

}  // namespace

std::optional<core::Protocol> ParseProtocol(const std::string& name) {
  // Accept the display names from core::ToString too, so that
  // ParseProtocol(ToString(p)) == p round-trips.
  if (name == "ttl" || name == "adaptive-ttl" || name == "Adaptive TTL") {
    return core::Protocol::kAdaptiveTtl;
  }
  if (name == "poll" || name == "polling" || name == "poll-every-time" ||
      name == "Poll-Every-Time") {
    return core::Protocol::kPollEveryTime;
  }
  if (name == "invalidation" || name == "inv" || name == "Invalidation") {
    return core::Protocol::kInvalidation;
  }
  if (name == "pcv" || name == "piggyback-validation" ||
      name == "Piggyback Validation (PCV)") {
    return core::Protocol::kPiggybackValidation;
  }
  if (name == "psi" || name == "piggyback-invalidation" ||
      name == "Piggyback Invalidation (PSI)") {
    return core::Protocol::kPiggybackInvalidation;
  }
  return std::nullopt;
}

std::optional<core::LeaseMode> ParseLeaseMode(const std::string& name) {
  if (name == "none") return core::LeaseMode::kNone;
  if (name == "fixed") return core::LeaseMode::kFixed;
  if (name == "two-tier" || name == "twotier" || name == "two_tier") {
    return core::LeaseMode::kTwoTier;
  }
  return std::nullopt;
}

int RunGenerate(const Flags& flags, std::ostream& out, std::ostream& err) {
  trace::Trace trace;
  const std::string preset_name = flags.GetString("preset", "");
  if (!preset_name.empty()) {
    const auto preset = ParsePreset(preset_name);
    if (!preset.has_value()) {
      err << "error: unknown preset '" << preset_name << "'\n";
      return 2;
    }
    trace = trace::GenerateTrace(trace::GetPreset(*preset).workload);
  } else {
    trace::WorkloadConfig config;
    config.name = "webcc-generated";
    const auto requests = flags.GetInt("requests", 20000);
    const auto documents = flags.GetInt("documents", 1000);
    const auto clients = flags.GetInt("clients", 500);
    const auto hours = flags.GetDouble("duration-hours", 24);
    const auto seed = flags.GetInt("seed", 1);
    const auto zipf = flags.GetDouble("zipf", config.doc_zipf_exponent);
    const auto mean_kb =
        flags.GetDouble("mean-size-kb", config.mean_file_size_bytes / 1024);
    if (!requests || !documents || !clients || !hours || !seed || !zipf ||
        !mean_kb || *requests <= 0 || *documents <= 0 || *clients <= 0 ||
        *hours <= 0) {
      err << "error: invalid generate parameters\n";
      return 2;
    }
    config.total_requests = static_cast<std::uint64_t>(*requests);
    config.num_documents = static_cast<std::uint32_t>(*documents);
    config.num_clients = static_cast<std::uint32_t>(*clients);
    config.duration = FromSeconds(*hours * 3600);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.doc_zipf_exponent = *zipf;
    config.mean_file_size_bytes = *mean_kb * 1024;
    trace = trace::GenerateTrace(config);
  }

  const std::string out_path = flags.GetString("out", "");
  if (RejectUnusedFlags(flags, err)) return 2;
  if (out_path.empty()) {
    trace::WriteClf(trace, out);
  } else {
    std::ofstream file(out_path);
    if (!file) {
      err << "error: cannot write " << out_path << "\n";
      return 1;
    }
    trace::WriteClf(trace, file);
    err << "wrote " << trace.records.size() << " records to " << out_path
        << "\n";
  }
  return 0;
}

int RunSummarize(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto trace = LoadTrace(flags, err);
  if (!trace.has_value()) return 2;
  if (RejectUnusedFlags(flags, err)) return 2;
  PrintSummary(*trace, out);
  return 0;
}

int RunFilter(const Flags& flags, std::ostream& out, std::ostream& err) {
  const auto trace = LoadTrace(flags, err);
  if (!trace.has_value()) return 2;
  const auto ttl_minutes = flags.GetDouble("browser-ttl-minutes", 60);
  const std::string out_path = flags.GetString("out", "");
  if (!ttl_minutes || *ttl_minutes < 0) {
    err << "error: invalid --browser-ttl-minutes\n";
    return 2;
  }
  if (RejectUnusedFlags(flags, err)) return 2;

  trace::BrowserFilterStats stats;
  const trace::Trace filtered = trace::FilterThroughBrowserCaches(
      *trace, FromSeconds(*ttl_minutes * 60), &stats);
  err << "absorbed " << stats.absorbed << " of " << stats.input_requests
      << " requests\n";
  if (out_path.empty()) {
    trace::WriteClf(filtered, out);
  } else {
    std::ofstream file(out_path);
    if (!file) {
      err << "error: cannot write " << out_path << "\n";
      return 1;
    }
    trace::WriteClf(filtered, file);
  }
  return 0;
}

int RunReplayCommand(const Flags& flags, std::ostream& out,
                     std::ostream& err) {
  replay::ReplayConfig config;
  // Input is either a trace (--preset/--in) or a synthetic scenario
  // (--scenario): a scenario is generated once the flags check out, so
  // nothing but the JSON needs to exist on disk, and every protocol replays
  // that one workload.
  synth::ScenarioFile scenario_file;
  std::optional<trace::Trace> trace;
  const std::string scenario_path = flags.GetString("scenario", "");
  if (!scenario_path.empty()) {
    if (!flags.GetString("preset", "").empty() ||
        !flags.GetString("in", "").empty()) {
      err << "error: --scenario is mutually exclusive with --preset/--in\n";
      return 2;
    }
    if (!LoadScenarioFile(scenario_path, scenario_file, err)) return 2;
  } else {
    trace = LoadTrace(flags, err);
    if (!trace.has_value()) return 2;
    config.trace = &*trace;
  }
  const Time input_duration =
      trace.has_value() ? trace->duration : scenario_file.config.duration;

  const std::string protocol_name = flags.GetString("protocol", "");

  std::vector<core::Protocol> protocols;
  if (protocol_name.empty() || protocol_name == "all") {
    protocols = {core::Protocol::kAdaptiveTtl, core::Protocol::kPollEveryTime,
                 core::Protocol::kInvalidation};
  } else {
    const auto protocol = ParseProtocol(protocol_name);
    if (!protocol.has_value()) {
      err << "error: unknown protocol '" << protocol_name
          << "' (ttl, poll, invalidation, pcv, psi, all)\n";
      return 2;
    }
    protocols = {*protocol};
  }

  const auto lifetime_days = flags.GetDouble("lifetime-days", 14);
  const auto lease_days = flags.GetDouble("lease-days", 0);
  const auto cache_mb = flags.GetInt("cache-mb", 128);
  if (!lifetime_days || *lifetime_days <= 0 || !lease_days ||
      *lease_days < 0 || !cache_mb || *cache_mb <= 0) {
    err << "error: invalid replay parameters\n";
    return 2;
  }
  config.mean_lifetime = FromSeconds(*lifetime_days * 86400);
  config.proxy_cache_bytes = static_cast<std::uint64_t>(*cache_mb) << 20;
  // --cache-bytes overrides --cache-mb with an exact budget (the pressure
  // ablation sweeps capacities far below 1 MB granularity).
  const auto cache_bytes = flags.GetInt("cache-bytes", 0);
  if (!cache_bytes || *cache_bytes < 0) {
    err << "error: invalid --cache-bytes (must be >= 0)\n";
    return 2;
  }
  if (*cache_bytes > 0) {
    config.proxy_cache_bytes = static_cast<std::uint64_t>(*cache_bytes);
  }
  const std::string policy_name = flags.GetString("cache-policy", "");
  if (!policy_name.empty() &&
      !http::eviction::ParseEvictionPolicyKind(policy_name,
                                               config.eviction_policy)) {
    err << "error: unknown cache policy '" << policy_name << "' (valid: "
        << http::eviction::ValidEvictionPolicyNames() << ")\n";
    return 2;
  }
  const std::string lease_name = flags.GetString("lease", "");
  const bool two_tier_switch = flags.GetBool("two-tier");
  if (!lease_name.empty()) {
    // Explicit lease mode; --lease-days still sets the duration.
    const auto lease_mode = ParseLeaseMode(lease_name);
    if (!lease_mode.has_value()) {
      err << "error: unknown lease mode '" << lease_name
          << "' (valid: none, fixed, two-tier)\n";
      return 2;
    }
    if (two_tier_switch) {
      err << "error: --lease and --two-tier are mutually exclusive\n";
      return 2;
    }
    config.lease.mode = *lease_mode;
    if (*lease_mode != core::LeaseMode::kNone) {
      config.lease.duration =
          *lease_days > 0 ? FromSeconds(*lease_days * 86400) : input_duration;
    }
  } else if (two_tier_switch) {
    config.lease.mode = core::LeaseMode::kTwoTier;
    config.lease.duration =
        *lease_days > 0 ? FromSeconds(*lease_days * 86400) : input_duration;
  } else if (*lease_days > 0) {
    config.lease.mode = core::LeaseMode::kFixed;
    config.lease.duration = FromSeconds(*lease_days * 86400);
  }
  config.multicast_invalidation = flags.GetBool("multicast");
  config.serialized_invalidation = !flags.GetBool("decoupled");
  config.journaled_recovery = !flags.GetBool("no-journal");
  const auto shards = flags.GetInt("shards", 1);
  if (!shards || *shards < 1) {
    err << "error: invalid --shards (must be >= 1)\n";
    return 2;
  }
  config.accelerator_shards = static_cast<std::uint32_t>(*shards);
  const auto batch_window_ms = flags.GetDouble("batch-window", 0);
  if (!batch_window_ms || *batch_window_ms < 0) {
    err << "error: invalid --batch-window (milliseconds, >= 0)\n";
    return 2;
  }
  if (*batch_window_ms > 0 && config.serialized_invalidation) {
    err << "error: --batch-window requires --decoupled (a serialized server "
           "blocks the write until every invalidation is out, so there is "
           "no outbox to batch)\n";
    return 2;
  }
  config.invalidation_batch_window =
      FromSeconds(*batch_window_ms / 1000.0);

  // Deterministic fault injection: --fault-plan loads a JSON scenario;
  // --fault-seed alone generates a random plan (the same plan every run for
  // a given seed and trace). The plan object must outlive the farm run.
  fault::FaultPlanFile plan_file;
  const std::string fault_plan_path = flags.GetString("fault-plan", "");
  const auto fault_seed = flags.GetInt("fault-seed", 0);
  if (!fault_seed || *fault_seed < 0) {
    err << "error: invalid --fault-seed\n";
    return 2;
  }
  config.fault_seed = static_cast<std::uint64_t>(*fault_seed);
  if (!fault_plan_path.empty()) {
    std::string plan_text;
    std::string problem;
    if (!ReadFileText(fault_plan_path, plan_text, problem)) {
      ReportInputError(err, fault_plan_path, problem,
                       "check the path; example plans live under "
                       "tests/data/fault_plans/");
      return 2;
    }
    if (!fault::ParseFaultPlanFile(plan_text, plan_file, problem)) {
      ReportInputError(err, fault_plan_path, problem,
                       "fault plans use the JSON dialect `webcc` writes; "
                       "see DESIGN.md section 9");
      return 2;
    }
    const int proxies = static_cast<int>(config.num_pseudo_clients);
    for (const fault::FaultEvent& event : plan_file.plan.events) {
      if (TargetNamesPseudoClient(event, proxies)) continue;
      ReportInputError(err, fault_plan_path,
                       std::string(fault::FaultKindName(event.kind)) +
                           " target " + std::to_string(event.target) +
                           " names no pseudo-client",
                       "the replay runs " + std::to_string(proxies) +
                           " pseudo-clients, 0 to " +
                           std::to_string(proxies - 1) +
                           "; partition and link_fault also take -1 (all)");
      return 2;
    }
    config.fault_plan = &plan_file.plan;
  } else if (*fault_seed > 0) {
    fault::RandomPlanConfig random_config;
    random_config.horizon = input_duration;
    random_config.clients = config.num_pseudo_clients;
    plan_file.plan =
        fault::Random(random_config, static_cast<std::uint64_t>(*fault_seed));
    config.fault_plan = &plan_file.plan;
    err << "generated fault plan '" << plan_file.plan.name << "' ("
        << plan_file.plan.events.size() << " events)\n";
  }

  const auto workers = flags.GetInt("workers", 0);
  if (!workers || *workers < 0) {
    err << "error: invalid --workers\n";
    return 2;
  }
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  if (RejectUnusedFlags(flags, err)) return 2;

  std::ofstream trace_file;
  if (!trace_out.empty()) {
    trace_file.open(trace_out);
    if (!trace_file) {
      err << "error: cannot write " << trace_out << "\n";
      return 1;
    }
  }

  synth::SynthWorkload workload;
  if (!scenario_path.empty()) {
    workload = synth::Generate(scenario_file.config);
    ReplayWorkload(workload, config);
  }

  // A multi-protocol sweep is a set of independent deterministic replays
  // over one shared trace: farm them across cores, then print in protocol
  // order (results arrive in submission order). Per-run metric registries
  // keep the farm race-free; they merge under protocol prefixes below.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
  std::vector<replay::ReplayConfig> configs;
  configs.reserve(protocols.size());
  for (const core::Protocol protocol : protocols) {
    config.protocol = protocol;
    if (!metrics_out.empty()) {
      registries.push_back(std::make_unique<obs::MetricsRegistry>());
      config.metrics = registries.back().get();
    }
    configs.push_back(config);
  }
  // The traces stream in submission order, so --trace-out is
  // byte-identical for any --workers value.
  const std::vector<replay::ReplayMetrics> results =
      replay::RunAll(configs, static_cast<unsigned>(*workers),
                     trace_out.empty() ? nullptr : &trace_file);

  if (!metrics_out.empty()) {
    std::ofstream metrics_file(metrics_out);
    if (!metrics_file) {
      err << "error: cannot write " << metrics_out << "\n";
      return 1;
    }
    if (registries.size() == 1) {
      registries.front()->WriteJson(metrics_file);
    } else {
      obs::MetricsRegistry merged;
      for (std::size_t i = 0; i < registries.size(); ++i) {
        merged.MergeFrom(*registries[i],
                         std::string(ProtocolToken(protocols[i])) + ".");
      }
      merged.WriteJson(metrics_file);
    }
    err << "wrote metrics to " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    err << "wrote trace events to " << trace_out << "\n";
  }

  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const core::Protocol protocol = protocols[i];
    const replay::ReplayMetrics& metrics = results[i];
    out << core::ToString(protocol) << "\n  " << metrics.Summary() << "\n";
    if (protocol == core::Protocol::kInvalidation) {
      out << "  site lists: "
          << util::WithCommas(
                 static_cast<std::int64_t>(metrics.sitelist_entries))
          << " entries, "
          << util::HumanBytes(metrics.sitelist_storage_bytes)
          << "; worst fan-out "
          << util::Fixed(metrics.invalidation_time_ms.max() / 1000.0, 2)
          << "s\n";
    }
  }
  return 0;
}

int RunSynth(const Flags& flags, std::ostream& out, std::ostream& err) {
  // The scenario comes either from a JSON file (--scenario) or from flags;
  // both funnel into the same validated ScenarioConfig.
  synth::ScenarioConfig config;
  const std::string scenario_path = flags.GetString("scenario", "");
  if (!scenario_path.empty()) {
    synth::ScenarioFile scenario_file;
    if (!LoadScenarioFile(scenario_path, scenario_file, err)) return 2;
    config = scenario_file.config;
  } else {
    config.name = flags.GetString("name", "synth");
    const auto requests = flags.GetInt("requests", 10000);
    const auto sites = flags.GetInt("sites", 1000);
    const auto documents = flags.GetInt("documents", 1000);
    const auto origins = flags.GetInt("origins", 1);
    const auto hours = flags.GetDouble("duration-hours", 1.0);
    const auto seed = flags.GetInt("seed", 1);
    const auto doc_zipf = flags.GetDouble("zipf", config.doc_zipf);
    const auto site_zipf = flags.GetDouble("site-zipf", config.site_zipf);
    const auto write_fraction =
        flags.GetDouble("write-fraction", config.write_fraction);
    const auto write_zipf = flags.GetDouble("write-zipf", config.write_zipf);
    const auto locality = flags.GetDouble("locality", config.locality);
    const auto churn = flags.GetDouble("churn-fraction", config.churn_fraction);
    if (!requests || !sites || !documents || !origins || !hours || !seed ||
        !doc_zipf || !site_zipf || !write_fraction || !write_zipf ||
        !locality || !churn) {
      err << "error: synth flags must be numeric\n";
      return 2;
    }
    // Negative counts would wrap the unsigned casts below; everything else
    // (zero counts, out-of-range fractions) flows into Validate so the
    // error names the offending field.
    if (*requests < 0 || *sites < 0 || *documents < 0 || *origins < 0 ||
        *hours <= 0 || *seed < 0) {
      err << "error: synth counts must be non-negative and duration "
             "positive\n";
      return 2;
    }
    config.requests = static_cast<std::uint64_t>(*requests);
    config.sites = static_cast<std::uint32_t>(*sites);
    config.documents = static_cast<std::uint32_t>(*documents);
    config.origins = static_cast<std::uint32_t>(*origins);
    config.duration = FromSeconds(*hours * 3600);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.doc_zipf = *doc_zipf;
    config.site_zipf = *site_zipf;
    config.write_fraction = *write_fraction;
    config.write_zipf = *write_zipf;
    config.locality = *locality;
    config.churn_fraction = *churn;
    const std::string problem = synth::Validate(config);
    if (!problem.empty()) {
      ReportInputError(err, "synth flags", problem,
                       "see DESIGN.md section 14 for valid ranges");
      return 2;
    }
  }

  const bool print_config = flags.GetBool("print-config");
  const bool print_digest = flags.GetBool("digest");
  const bool do_replay = flags.GetBool("replay");
  const std::string out_path = flags.GetString("out", "");
  const std::string protocol_name = flags.GetString("protocol", "");
  const auto workers = flags.GetInt("workers", 0);
  if (!workers || *workers < 0) {
    err << "error: invalid --workers\n";
    return 2;
  }
  if (RejectUnusedFlags(flags, err)) return 2;

  if (print_config) {
    out << synth::ToJson(config);
    return 0;
  }

  const synth::SynthWorkload workload = synth::Generate(config);
  if (print_digest) {
    // The determinism gate: equal configs must print equal digests on any
    // machine (CI runs this twice per seed and diffs).
    out << "workload_digest " << synth::WorkloadDigest(workload) << "\n";
  }
  if (!out_path.empty()) {
    std::ofstream file(out_path);
    if (!file) {
      err << "error: cannot write " << out_path << "\n";
      return 1;
    }
    trace::WriteClf(workload.trace, file);
    err << "wrote " << workload.trace.records.size() << " records to "
        << out_path << "\n";
  }

  if (do_replay) {
    std::vector<core::Protocol> protocols;
    if (protocol_name.empty() || protocol_name == "invalidation") {
      protocols = {core::Protocol::kInvalidation};
    } else if (protocol_name == "all") {
      protocols = {core::Protocol::kAdaptiveTtl,
                   core::Protocol::kPollEveryTime,
                   core::Protocol::kInvalidation,
                   core::Protocol::kPiggybackValidation,
                   core::Protocol::kPiggybackInvalidation};
    } else {
      const auto protocol = ParseProtocol(protocol_name);
      if (!protocol.has_value()) {
        err << "error: unknown protocol '" << protocol_name
            << "' (ttl, poll, invalidation, pcv, psi, all)\n";
        return 2;
      }
      protocols = {*protocol};
    }
    // Every protocol replays the workload generated above. The traces are
    // hashed as they stream, in submission order: the digest below is
    // invariant in --workers, and a trace is held only while its replay
    // runs ahead of an earlier one.
    std::vector<replay::ReplayConfig> configs(protocols.size());
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      ReplayWorkload(workload, configs[i]);
      configs[i].protocol = protocols[i];
    }
    obs::DigestStreambuf digest;
    std::ostream jsonl(&digest);
    const std::vector<replay::ReplayMetrics> results =
        replay::RunAll(configs, static_cast<unsigned>(*workers), &jsonl);
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      out << core::ToString(protocols[i]) << "\n  " << results[i].Summary()
          << "\n";
    }
    out << "trace_digest " << digest.digest() << "\n";
  } else if (!print_digest && out_path.empty()) {
    PrintSummary(workload.trace, out);
    out << "write events: " << workload.writes.size() << "\n";
  }
  return 0;
}

int RunTraceCommand(const Flags& flags, std::ostream& out,
                    std::ostream& err) {
  if (flags.positional().size() < 2 || flags.positional()[1] != "summarize") {
    err << "usage: webcc trace summarize --in FILE\n";
    return 2;
  }
  const std::string in_path = flags.GetString("in", "");
  if (RejectUnusedFlags(flags, err)) return 2;
  if (in_path.empty()) {
    err << "error: need --in FILE (a --trace-out JSONL stream)\n";
    return 2;
  }
  std::ifstream in(in_path);
  if (!in) {
    ReportInputError(err, in_path, CannotOpenProblem(),
                     "pass a JSONL stream written by replay --trace-out");
    return 1;
  }
  const obs::TraceSummary summary = obs::SummarizeTrace(in);
  obs::WriteTraceSummary(out, summary);
  // Malformed or structurally inconsistent streams exit nonzero so scripts
  // can assert trace health.
  return summary.malformed_lines == 0 && summary.undefined_ids == 0 ? 0 : 1;
}

int RunProtocols(std::ostream& out) {
  out << "ttl           " << core::ToString(core::Protocol::kAdaptiveTtl)
      << "\n"
      << "poll          " << core::ToString(core::Protocol::kPollEveryTime)
      << "\n"
      << "invalidation  " << core::ToString(core::Protocol::kInvalidation)
      << "\n"
      << "pcv           "
      << core::ToString(core::Protocol::kPiggybackValidation) << "\n"
      << "psi           "
      << core::ToString(core::Protocol::kPiggybackInvalidation) << "\n";
  return 0;
}

void PrintUsage(std::ostream& out) {
  out << "usage: webcc <command> [flags]\n"
         "commands:\n"
         "  generate   synthesize a workload, write it as CLF\n"
         "             --preset EPA|SDSC|ClarkNet|NASA|SASK, or\n"
         "             --requests N --documents N --clients N\n"
         "             --duration-hours H [--seed S] [--zipf Z]\n"
         "             [--mean-size-kb K]   [--out FILE]\n"
         "  summarize  Table-2 style statistics of a trace\n"
         "             --in FILE | --preset NAME\n"
         "  filter     drop requests a browser cache would absorb\n"
         "             --in FILE [--browser-ttl-minutes M] [--out FILE]\n"
         "  synth      deterministic scenario synthesizer (seeded; same\n"
         "             config => bit-identical workload on any machine)\n"
         "             --scenario FILE (JSON), or flags:\n"
         "             [--sites N] [--documents N] [--requests N]\n"
         "             [--origins N] [--duration-hours H] [--seed S]\n"
         "             [--zipf Z] [--site-zipf Z] [--write-fraction F]\n"
         "             [--write-zipf Z] [--locality L] [--churn-fraction F]\n"
         "             actions: [--print-config]  canonical scenario JSON\n"
         "             [--digest]  workload digest (determinism gate)\n"
         "             [--out FILE]  write the trace as CLF\n"
         "             [--replay [--protocol P|all] [--workers N]]  replay\n"
         "             in-process and print metrics + merged trace digest;\n"
         "             P is ttl|poll|invalidation|pcv|psi (default\n"
         "             invalidation), all runs those five\n"
         "  replay     run the consistency experiment on a trace\n"
         "             --in FILE | --preset NAME | --scenario FILE\n"
         "             [--protocol P]  ttl|poll|invalidation|pcv|psi, or\n"
         "             all (the default): the paper's ttl, poll and\n"
         "             invalidation\n"
         "             [--lifetime-days D] [--lease-days L]\n"
         "             [--lease none|fixed|two-tier] [--two-tier]\n"
         "             [--multicast] [--decoupled] [--cache-mb N]\n"
         "             [--cache-bytes N]  exact proxy-cache budget, overrides\n"
         "             --cache-mb (the pressure ablation needs sub-MB steps)\n"
         "             [--cache-policy lru|expired-first|gds]  eviction\n"
         "             policy (default expired-first, Harvest's rule)\n"
         "             [--shards N]  consistent-hash the invalidation table\n"
         "             across N accelerator shards (default 1)\n"
         "             [--batch-window MS]  with --decoupled, hold each\n"
         "             shard's outbox MS milliseconds and coalesce same-site\n"
         "             invalidations into one INVB frame (0 = unbatched)\n"
         "             [--fault-plan FILE]  JSON crash/partition/link-fault\n"
         "             scenario; [--fault-seed S] replays it (or, without\n"
         "             a file, generates a random plan) deterministically\n"
         "             [--no-journal]  blanket INVSRV recovery broadcast\n"
         "             instead of the write-ahead journal rebuild\n"
         "             [--workers N]  (0 = one per core; protocols of a\n"
         "             sweep run concurrently, output order is unchanged)\n"
         "             [--trace-out FILE]    structured JSONL event trace\n"
         "             [--metrics-out FILE]  full metric registry as JSON\n"
         "  trace      inspect a --trace-out stream\n"
         "             summarize --in FILE\n"
         "  protocols  list protocol names\n";
}

int RunCli(const Flags& flags, std::ostream& out, std::ostream& err) {
  if (flags.positional().empty()) {
    PrintUsage(err);
    return 2;
  }
  const std::string& command = flags.positional()[0];
  if (command == "generate") return RunGenerate(flags, out, err);
  if (command == "summarize") return RunSummarize(flags, out, err);
  if (command == "filter") return RunFilter(flags, out, err);
  if (command == "synth") return RunSynth(flags, out, err);
  if (command == "replay") return RunReplayCommand(flags, out, err);
  if (command == "trace") return RunTraceCommand(flags, out, err);
  if (command == "protocols") return RunProtocols(out);
  if (command == "help") {
    PrintUsage(out);
    return 0;
  }
  err << "error: unknown command '" << command << "'\n";
  PrintUsage(err);
  return 2;
}

}  // namespace webcc::cli
