// Shared declarations of webcc_bench, the repository's seeded end-to-end
// benchmark (see README.md in this directory for the metric definitions).
//
// One process runs one workload at one seed. An untraced run measures the
// end-to-end metrics; a traced run (--trace 1) reruns the workload with a
// counting trace sink, times each layer's public functions from outside
// (probes.cc) and writes the spans it recorded to a file.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace webcc::bench {

enum class Workload { kPaperTables, kMillionSites, kEdgeReads, kLiveLoopback };

const std::vector<Workload>& AllWorkloads();
std::string_view WorkloadName(Workload workload);
bool ParseWorkload(std::string_view name, Workload& out);

struct RunOptions {
  Workload workload = Workload::kPaperTables;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // length of the measured window
  bool traced = false;
  bool smoke = false;  // ~1% input sizes, for validating the harness
  std::string out_dir = "build-bench/results";
};

// Monotonic wall clock in ns.
std::int64_t WallNs();

// A timed interval on the WallNs() clock.
struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Set-ups timed per untraced run; setup_s is their median. A replay
// workload repeats its set-up, at least kSetups times, until kSetupSeconds
// have passed, because one set-up of paper_tables lasts under 0.1 s; the
// live workload's set-ups are kSetups stack starts and warm-ups.
inline constexpr std::size_t kSetups = 5;
inline constexpr double kSetupSeconds = 2.0;

// --- spans -------------------------------------------------------------------
//
// A span covers one call the benchmark makes into a layer, or one timed
// phase of `calls` such calls. Spans are kept in memory and written out when
// the run ends. Open/Close are for the main thread; worker threads collect
// closed spans locally and hand them over with Append after joining.
struct Span {
  std::uint32_t name = 0;  // index into Spans::names()
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 at top level
  std::uint64_t calls = 1;
};

class Spans {
 public:
  std::uint32_t Intern(std::string_view name);
  std::int64_t Open(std::string_view name);
  void Close(std::int64_t id, std::uint64_t calls = 1);
  // The innermost span open on the main thread, or -1.
  std::int64_t current() const {
    return open_.empty() ? -1 : open_.back();
  }
  void Append(const std::vector<Span>& closed);

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

// Opens a span for its lifetime; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::string_view name)
      : spans_(spans), id_(spans != nullptr ? spans->Open(name) : -1) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  std::int64_t id_;
};

// Runs `phase` once as a span named `name` covering `calls` calls and
// returns its duration in ns. Probes time whole phases and divide by the
// call count, because a clock read costs as much as the cheapest calls.
template <typename F>
std::int64_t TimePhase(Spans& spans, std::string_view name,
                       std::uint64_t calls, F&& phase) {
  const std::int64_t id = spans.Open(name);
  const std::int64_t start = WallNs();
  phase();
  const std::int64_t elapsed = WallNs() - start;
  spans.Close(id, calls);
  return elapsed;
}

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  // The summary's metrics: exactly BENCHMARK.json's end_to_end metrics in an
  // untraced run and its per_layer metrics in a traced one.
  std::vector<Metric> metrics;
  // Metrics written as lines of the result file but left out of the
  // summary: BENCHMARK.json's end-to-end metrics must be reported by every
  // workload and never read 0, so metrics of one workload, or that read 0
  // when the system works, cannot be listed there. compare holds their
  // bounds.
  std::vector<Metric> file_only;
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void AddFileOnly(std::string name, double value, std::string unit) {
    file_only.push_back({std::move(name), value, std::move(unit)});
  }
  // Records an output check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failed_checks.empty(); }
};

// `a / b`, or 0 when `b` is 0 (a layer that did no work on this workload).
double Ratio(double a, double b);
double Median(std::vector<double> values);
// First and third quartile as Python's statistics.quantiles(n=4) computes
// them (the "exclusive" method), so compare agrees with external tooling.
void Quartiles(std::vector<double> values, double& q1, double& q3);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Writes the provenance line, one line per metric and the summary line to
// stdout and to a result file under options.out_dir. Returns the exit code.
int Report(const RunOptions& options, const RunResult& result);

// Writes spans to <out_dir>/trace-<workload>-<seed>.json.
bool WriteSpans(const RunOptions& options, const Spans& spans);

// webcc_bench compare A/ B/: judges two sets of result files against the
// end-to-end bounds in `spec_path` (BENCHMARK.json). Returns the exit code.
int Compare(const std::string& dir_a, const std::string& dir_b,
            const std::string& spec_path);

}  // namespace webcc::bench
