#include "synth/generate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "util/check.h"
#include "util/distributions.h"
#include "util/fnv1a.h"
#include "util/rng.h"

namespace webcc::synth {
namespace {

Time PhaseEnd(const Phase& phase, const ScenarioConfig& config) {
  return phase.duration == 0 ? config.duration : phase.start + phase.duration;
}

bool PhaseActive(const Phase& phase, const ScenarioConfig& config, Time t) {
  return t >= phase.start && t < PhaseEnd(phase, config);
}

double DiurnalFactor(const Phase& phase, Time t) {
  const double x =
      2.0 * M_PI * ToSeconds(t - phase.start) / ToSeconds(phase.period);
  return std::max(0.05, 1.0 + phase.amplitude * std::sin(x));
}

// Request-rate factor at time t: the product over active phases. Diurnal
// phases contribute their sinusoid on top of the flat multiplier.
double RateMultiplierAt(const ScenarioConfig& config, Time t) {
  double m = 1.0;
  for (const Phase& phase : config.phases) {
    if (!PhaseActive(phase, config, t)) continue;
    m *= phase.rate_multiplier;
    if (phase.kind == PhaseKind::kDiurnal) m *= DiurnalFactor(phase, t);
  }
  return m;
}

// Write-rate factor at time t. Writes ride the same diurnal curve as reads
// so a burst scenario keeps its read/write phase relationship.
double WriteMultiplierAt(const ScenarioConfig& config, Time t) {
  double m = 1.0;
  for (const Phase& phase : config.phases) {
    if (!PhaseActive(phase, config, t)) continue;
    m *= phase.write_multiplier;
    if (phase.kind == PhaseKind::kDiurnal) m *= DiurnalFactor(phase, t);
  }
  return m;
}

// The focus in force at time t: the latest-starting active phase with
// focus > 0 wins (phases are canonically sorted, so "last active wins" is
// deterministic). Returns 0 focus when no phase focuses traffic.
double FocusAt(const ScenarioConfig& config, Time t, std::uint32_t& hot_docs) {
  double focus = 0.0;
  hot_docs = 1;
  for (const Phase& phase : config.phases) {
    if (PhaseActive(phase, config, t) && phase.focus > 0.0) {
      focus = phase.focus;
      hot_docs = std::min(phase.hot_docs, config.documents);
    }
  }
  return focus;
}

// Allocates `count` event times across fixed-width buckets proportionally to
// the phase-modulated rate curve (evaluated at bucket midpoints), scattering
// uniformly within buckets. Shared by the request and write streams.
template <typename MultiplierFn>
std::vector<Time> ScheduleEvents(const ScenarioConfig& config,
                                 std::uint64_t count, util::Rng& rng,
                                 MultiplierFn&& multiplier_at) {
  const Time bucket_width = std::min<Time>(5 * kMinute, config.duration);
  const auto num_buckets = static_cast<std::size_t>(
      (config.duration + bucket_width - 1) / bucket_width);

  std::vector<double> weights(num_buckets);
  for (std::size_t b = 0; b < num_buckets; ++b) {
    const Time start = static_cast<Time>(b) * bucket_width;
    const Time end = std::min(start + bucket_width, config.duration);
    const Time mid = start + (end - start) / 2;
    // Floor keeps the distribution well-defined when every active phase
    // multiplies the rate to zero.
    weights[b] = std::max(1e-9, multiplier_at(config, mid)) *
                 ToSeconds(end - start);
  }
  util::DiscreteDistribution bucket_dist(weights);

  std::vector<Time> events;
  events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bucket = bucket_dist.Sample(rng);
    const Time start = static_cast<Time>(bucket) * bucket_width;
    const Time end = std::min(start + bucket_width, config.duration);
    events.push_back(start + rng.NextInRange(0, end - start - 1));
  }
  std::sort(events.begin(), events.end());
  return events;
}

// Bounded global recency stack for the LRU-stack-distance locality model.
class RecencyStack {
 public:
  explicit RecencyStack(std::uint32_t depth) { stack_.reserve(depth + 1); }

  bool empty() const { return stack_.empty(); }
  std::size_t size() const { return stack_.size(); }
  trace::DocId At(std::size_t depth) const { return stack_[depth]; }

  void Touch(trace::DocId doc, std::uint32_t max_depth) {
    auto it = std::find(stack_.begin(), stack_.end(), doc);
    if (it != stack_.end()) stack_.erase(it);
    stack_.insert(stack_.begin(), doc);
    if (stack_.size() > max_depth) stack_.resize(max_depth);
  }

 private:
  std::vector<trace::DocId> stack_;  // front = most recently referenced
};

void MixU64(std::uint64_t& h, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  h = util::Fnv1a(std::string_view(bytes, sizeof bytes), h);
}

void MixString(std::uint64_t& h, const std::string& s) {
  MixU64(h, s.size());
  h = util::Fnv1a(s, h);
}

}  // namespace

SynthWorkload Generate(const ScenarioConfig& input) {
  ScenarioConfig config = input;
  Canonicalize(config);
  const std::string problem = Validate(config);
  WEBCC_CHECK_MSG(problem.empty(), "invalid scenario: " + problem);

  util::Rng rng(config.seed);
  util::Rng size_rng = rng.Fork();
  util::Rng arrival_rng = rng.Fork();
  util::Rng pick_rng = rng.Fork();
  util::Rng write_rng = rng.Fork();
  util::Rng churn_rng = rng.Fork();

  SynthWorkload workload;
  trace::Trace& trace = workload.trace;
  trace.name = config.name;
  trace.duration = config.duration;

  // Documents: lognormal sizes; multi-origin scenarios partition paths
  // round-robin across per-origin prefixes so URL sets stay disjoint.
  trace.documents.reserve(config.documents);
  for (std::uint32_t d = 0; d < config.documents; ++d) {
    char path[64];
    if (config.origins > 1) {
      std::snprintf(path, sizeof path, "/o%u/docs/%06u.html",
                    d % config.origins, d);
    } else {
      std::snprintf(path, sizeof path, "/docs/%06u.html", d);
    }
    const double raw = util::SampleLognormal(size_rng, config.mean_size_bytes,
                                             config.size_sigma);
    const auto size = static_cast<std::uint64_t>(
        std::clamp(raw, static_cast<double>(config.min_size_bytes),
                   static_cast<double>(config.max_size_bytes)));
    trace.documents.push_back(trace::DocumentInfo{path, size});
  }

  // Client sites, dotted-quad identifiers (validated unique: sites < 2^24).
  trace.clients.reserve(config.sites);
  for (std::uint32_t c = 0; c < config.sites; ++c) {
    char id[32];
    std::snprintf(id, sizeof id, "10.%u.%u.%u", (c >> 16) & 0xff,
                  (c >> 8) & 0xff, c & 0xff);
    trace.clients.push_back(id);
  }

  // Popularity rank -> document id, shuffled so rank is independent of the
  // size-draw order (same trick as trace/workload.cc).
  std::vector<trace::DocId> doc_by_rank(config.documents);
  for (std::uint32_t d = 0; d < config.documents; ++d) doc_by_rank[d] = d;
  for (std::uint32_t d = config.documents; d > 1; --d) {
    std::swap(doc_by_rank[d - 1], doc_by_rank[pick_rng.NextBelow(d)]);
  }

  // Negative/404 churn: each document is independently created mid-trace
  // with probability churn_fraction, at a uniform time. The creation is the
  // document's first write; requests before it model archival 404 lookups.
  std::vector<Time> created_at(config.documents, 0);
  if (config.churn_fraction > 0.0) {
    for (std::uint32_t d = 0; d < config.documents; ++d) {
      if (churn_rng.NextBool(config.churn_fraction)) {
        created_at[d] = static_cast<Time>(
            churn_rng.NextBelow(static_cast<std::uint64_t>(config.duration)));
        workload.writes.push_back(trace::ModEvent{created_at[d], d});
      }
    }
  }

  const util::ZipfDistribution doc_dist(config.documents, config.doc_zipf);
  const util::ZipfDistribution site_dist(config.sites, config.site_zipf);
  const util::ZipfDistribution stack_dist(config.stack_depth,
                                          config.stack_theta);

  // Request stream.
  const std::vector<Time> arrivals = ScheduleEvents(
      config, config.requests, arrival_rng,
      [](const ScenarioConfig& c, Time t) { return RateMultiplierAt(c, t); });

  RecencyStack stack(config.stack_depth);
  trace.records.reserve(arrivals.size());
  for (const Time at : arrivals) {
    const auto client = static_cast<trace::ClientId>(site_dist.Sample(pick_rng));
    std::uint32_t hot_docs = 1;
    const double focus = FocusAt(config, at, hot_docs);
    trace::DocId doc;
    if (focus > 0.0 && pick_rng.NextBool(focus)) {
      doc = doc_by_rank[pick_rng.NextBelow(hot_docs)];
    } else if (config.locality > 0.0 && !stack.empty() &&
               pick_rng.NextBool(config.locality)) {
      const std::size_t depth =
          std::min(stack_dist.Sample(pick_rng), stack.size() - 1);
      doc = stack.At(depth);
    } else {
      doc = doc_by_rank[doc_dist.Sample(pick_rng)];
    }
    if (config.locality > 0.0) stack.Touch(doc, config.stack_depth);
    trace.records.push_back(trace::TraceRecord{at, client, doc});
  }

  // Write stream: write_fraction = W / (R + W), drawn Zipf(write_zipf) over
  // popularity ranks, riding the phase schedule's write multipliers.
  if (config.write_fraction > 0.0) {
    const double r = static_cast<double>(config.requests);
    const auto write_count = static_cast<std::uint64_t>(std::llround(
        r * config.write_fraction / (1.0 - config.write_fraction)));
    const util::ZipfDistribution write_dist(config.documents,
                                            config.write_zipf);
    const std::vector<Time> write_times = ScheduleEvents(
        config, write_count, write_rng,
        [](const ScenarioConfig& c, Time t) { return WriteMultiplierAt(c, t); });
    for (const Time at : write_times) {
      std::uint32_t hot_docs = 1;
      const double focus = FocusAt(config, at, hot_docs);
      trace::DocId doc = 0;
      // A churned document's first write must be its creation: redraw a few
      // times when the draw lands before the target's creation time.
      for (int attempt = 0; attempt < 4; ++attempt) {
        if (focus > 0.0 && write_rng.NextBool(focus)) {
          doc = doc_by_rank[write_rng.NextBelow(hot_docs)];
        } else {
          doc = doc_by_rank[write_dist.Sample(write_rng)];
        }
        if (created_at[doc] <= at) break;
      }
      workload.writes.push_back(trace::ModEvent{at, doc});
    }
  }

  std::sort(workload.writes.begin(), workload.writes.end(),
            [](const trace::ModEvent& a, const trace::ModEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.doc < b.doc;
            });
  return workload;
}

std::uint64_t WorkloadDigest(const SynthWorkload& workload) {
  const trace::Trace& trace = workload.trace;
  // Not FNV's offset basis but that number short of its last digit; the
  // golden scenario digests were taken from this start.
  std::uint64_t h = 1469598103934665603ULL;
  MixString(h, trace.name);
  MixU64(h, static_cast<std::uint64_t>(trace.duration));
  MixU64(h, trace.documents.size());
  for (const trace::DocumentInfo& doc : trace.documents) {
    MixString(h, doc.path);
    MixU64(h, doc.size_bytes);
  }
  MixU64(h, trace.clients.size());
  for (const std::string& client : trace.clients) MixString(h, client);
  MixU64(h, trace.records.size());
  for (const trace::TraceRecord& record : trace.records) {
    MixU64(h, static_cast<std::uint64_t>(record.timestamp));
    MixU64(h, record.client);
    MixU64(h, record.doc);
  }
  MixU64(h, workload.writes.size());
  for (const trace::ModEvent& event : workload.writes) {
    MixU64(h, static_cast<std::uint64_t>(event.at));
    MixU64(h, event.doc);
  }
  return h;
}

}  // namespace webcc::synth
