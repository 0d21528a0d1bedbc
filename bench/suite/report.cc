// Clocks, spans, statistics and result output for webcc_bench.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "bench.h"

namespace webcc::bench {

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> all = {
      Workload::kPaperTables, Workload::kMillionSites, Workload::kEdgeReads,
      Workload::kLiveLoopback};
  return all;
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPaperTables:
      return "paper_tables";
    case Workload::kMillionSites:
      return "million_sites";
    case Workload::kEdgeReads:
      return "edge_reads";
    case Workload::kLiveLoopback:
      return "live_loopback";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload& out) {
  for (const Workload workload : AllWorkloads()) {
    if (WorkloadName(workload) == name) {
      out = workload;
      return true;
    }
  }
  return false;
}

std::int64_t WallNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// --- spans -------------------------------------------------------------------

std::uint32_t Spans::Intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t Spans::Open(std::string_view name) {
  Span span;
  span.name = Intern(name);
  span.parent = current();
  span.start_ns = WallNs();
  spans_.push_back(span);
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Spans::Close(std::int64_t id, std::uint64_t calls) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = WallNs();
  span.calls = calls;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Spans::Append(const std::vector<Span>& closed) {
  spans_.insert(spans_.end(), closed.begin(), closed.end());
}

// --- statistics ----------------------------------------------------------------

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) failed_checks.push_back(what);
}

double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

void Quartiles(std::vector<double> values, double& q1, double& q3) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 2) {
    q1 = q3 = n == 1 ? values[0] : 0.0;
    return;
  }
  const auto quantile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q1 = quantile(1);
  q3 = quantile(3);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- output ----------------------------------------------------------------------

namespace {

std::string Number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string UtcNow(const char* format) {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), format, &utc);
  return buf;
}

std::string Provenance(const RunOptions& options) {
  const char* sha = std::getenv("WEBCC_BENCH_GIT_SHA");
  std::string out = "{\"kind\":\"provenance\",\"git_sha\":\"";
  out += sha != nullptr && *sha != '\0' ? sha : "unknown";
  out += "\",\"nproc\":" +
         std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  out += ",\"compiler\":\"" WEBCC_BENCH_COMPILER "\"";
  out += ",\"build_type\":\"" WEBCC_BENCH_BUILD_TYPE "\"";
  out += ",\"workload\":\"" + std::string(WorkloadName(options.workload)) +
         "\"";
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"seconds\":" + Number(options.seconds);
  out += std::string(",\"traced\":") + (options.traced ? "true" : "false");
  out += std::string(",\"smoke\":") + (options.smoke ? "true" : "false");
  out += ",\"utc\":\"" + UtcNow("%Y-%m-%dT%H:%M:%SZ") + "\"}";
  return out;
}

std::string Stem(const RunOptions& options) {
  return std::string(WorkloadName(options.workload)) + "-" +
         std::to_string(options.seed);
}

bool WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::error_code error;
  std::filesystem::create_directories(path.parent_path(), error);
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "webcc_bench: could not write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int Report(const RunOptions& options, const RunResult& input) {
  RunResult result = input;
  // Failures count against attempts; compare judges the rate (bound: no
  // increase).
  result.AddFileOnly("error_rate",
                     Ratio(static_cast<double>(result.failed),
                           static_cast<double>(result.attempted)),
                     "fraction");
  for (std::vector<Metric>* list : {&result.metrics, &result.file_only}) {
    for (Metric& metric : *list) {
      if (!std::isfinite(metric.value)) {
        result.Check(false, metric.name + " is not finite");
        metric.value = 0.0;
      }
    }
  }
  const std::string prefix = "{\"workload\":\"" +
                             std::string(WorkloadName(options.workload)) +
                             "\",\"seed\":" + std::to_string(options.seed) +
                             ",\"metric\":\"";
  std::string text = Provenance(options) + "\n";
  std::vector<Metric> lines = result.metrics;
  lines.insert(lines.end(), result.file_only.begin(), result.file_only.end());
  for (const Metric& metric : lines) {
    text += prefix + metric.name + "\",\"value\":" + Number(metric.value) +
            ",\"unit\":\"" + metric.unit + "\"}\n";
  }
  text += std::string("{\"correct\":") +
          (result.correct() ? "true" : "false") +
          ",\"attempted\":" + std::to_string(result.attempted) +
          ",\"failed\":" + std::to_string(result.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    text += (i == 0 ? "\"" : ",\"") + metric.name +
            "\":{\"value\":" + Number(metric.value) + ",\"unit\":\"" +
            metric.unit + "\"}";
  }
  text += "}}\n";

  for (const std::string& what : result.failed_checks) {
    std::fprintf(stderr, "webcc_bench: check failed: %s\n", what.c_str());
  }
  std::fputs(text.c_str(), stdout);
  std::fflush(stdout);
  WriteFile(std::filesystem::path(options.out_dir) /
                (Stem(options) + (options.traced ? "-traced-" : "-") +
                 UtcNow("%Y%m%dT%H%M%S") + "-" + std::to_string(getpid()) +
                 ".jsonl"),
            text);
  return result.correct() ? 0 : 1;
}

bool WriteSpans(const RunOptions& options, const Spans& spans) {
  std::string text = "{\"provenance\":" + Provenance(options) + ",\n\"names\":[";
  for (std::size_t i = 0; i < spans.names().size(); ++i) {
    text += (i == 0 ? "\"" : ",\"") + spans.names()[i] + "\"";
  }
  text +=
      "],\n\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"calls\"],"
      "\n\"spans\":[\n";
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& span = spans.spans()[i];
    text += (i == 0 ? "[" : ",\n[") + std::to_string(span.name) + "," +
            std::to_string(span.start_ns) + "," + std::to_string(span.end_ns) +
            "," + std::to_string(span.parent) + "," +
            std::to_string(span.calls) + "]";
  }
  text += "\n]}\n";
  return WriteFile(std::filesystem::path(options.out_dir) /
                       ("trace-" + Stem(options) + ".json"),
                   text);
}

}  // namespace webcc::bench
