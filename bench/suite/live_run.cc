#include "live_run.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "live/live_proxy.h"
#include "live/live_server.h"
#include "live/socket.h"
#include "net/wire.h"
#include "replay_run.h"

namespace webcc::bench {
namespace {

constexpr double kFailed = std::numeric_limits<double>::max();

void SleepUntilNs(std::int64_t deadline) {
  const std::int64_t now = WallNs();
  if (deadline > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now));
  }
}

// A started server and proxy holding every document of the trace.
struct LiveStack {
  explicit LiveStack(const trace::Trace& trace)
      : server(live::LiveServer::Options{}) {
    ok = server.Start();
    for (const trace::DocumentInfo& doc : trace.documents) {
      server.AddDocument(doc.path, doc.size_bytes);
    }
    live::LiveProxy::Options options;
    options.server_port = server.port();
    proxy = std::make_unique<live::LiveProxy>(options);
    ok = ok && proxy->Start();
  }

  bool ok = false;
  live::LiveServer server;
  std::unique_ptr<live::LiveProxy> proxy;
};

// What one client thread saw during the window.
struct ClientLog {
  LatencyHistogram hit_us, miss_us;
  std::vector<Span> spans;
  std::uint64_t failed = 0;
};

struct WriterLog {
  stats::LatencyStats write_us, touch_us;
  std::vector<Span> spans;
  double lag_us_max = 0.0;
};

constexpr double kHistogramMinUs = 0.1;
constexpr double kHistogramGrowth = 1.01;

}  // namespace

LiveParams LiveParamsFor(const RunOptions& options) {
  LiveParams params;
  params.seconds = options.seconds;
  params.warmup_fetches = options.smoke ? 200 : 20000;
  return params;
}

void LatencyHistogram::Record(double us) {
  const double index =
      std::log(std::max(us, kHistogramMinUs) / kHistogramMinUs) /
      std::log(kHistogramGrowth);
  const auto last = static_cast<double>(buckets_.size() - 1);
  ++buckets_[static_cast<std::size_t>(index < last ? index : last)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(p / 100.0 * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  while (i + 1 < buckets_.size() && (seen += buckets_[i]) < rank) ++i;
  return kHistogramMinUs *
         std::pow(kHistogramGrowth, static_cast<double>(i) + 0.5);
}

LiveOutcome RunLive(const trace::Trace& trace,
                    const std::vector<trace::ModEvent>& writes,
                    const LiveParams& params, Spans* spans) {
  LiveOutcome outcome;
  const std::vector<trace::TraceRecord>& records = trace.records;
  const auto fetch = [&](live::LiveProxy& proxy, std::size_t i) {
    const trace::TraceRecord& record = records[i % records.size()];
    return proxy.Fetch(trace.clients[record.client],
                       trace.documents[record.doc].path);
  };

  std::unique_ptr<LiveStack> stack;
  for (std::size_t i = 0; i < params.setups; ++i) {
    stack.reset();
    ScopedSpan span(spans, "live.setup");
    Interval setup{.start_ns = WallNs()};
    stack = std::make_unique<LiveStack>(trace);
    for (std::size_t f = 0; stack->ok && f < params.warmup_fetches; ++f) {
      if (!fetch(*stack->proxy, f).ok) ++outcome.failed_fetches;
    }
    outcome.fetches += params.warmup_fetches;
    setup.end_ns = WallNs();
    outcome.setups.push_back(setup);
  }
  if (!stack->ok) {
    std::fprintf(stderr, "webcc_bench: could not start the live stack\n");
    ++outcome.failed_fetches;
    return outcome;
  }
  live::LiveServer& server = stack->server;
  live::LiveProxy& proxy = *stack->proxy;

  std::optional<ScopedSpan> window_span;
  window_span.emplace(spans, "live.window");
  const std::int64_t parent = spans != nullptr ? spans->current() : -1;
  const std::uint32_t fetch_name =
      spans != nullptr ? spans->Intern("live.Fetch") : 0;
  const std::uint32_t touch_name =
      spans != nullptr ? spans->Intern("live.TouchDocument") : 0;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> fetched{0};
  std::vector<ClientLog> clients(kLiveClients);
  WriterLog writer_log;
  const std::int64_t start = WallNs();
  std::vector<std::thread> threads;
  for (int k = 0; k < kLiveClients; ++k) {
    threads.emplace_back([&, k] {
      ClientLog& log = clients[static_cast<std::size_t>(k)];
      for (std::size_t i = params.warmup_fetches + static_cast<std::size_t>(k);
           !stop.load(std::memory_order_relaxed); i += kLiveClients) {
        const std::int64_t t0 = WallNs();
        const live::LiveProxy::FetchResult result = fetch(proxy, i);
        const std::int64_t t1 = WallNs();
        fetched.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok) ++log.failed;
        (result.local_hit ? log.hit_us : log.miss_us)
            .Record(result.ok ? static_cast<double>(t1 - t0) / 1e3 : kFailed);
        if (spans != nullptr) {
          log.spans.push_back({fetch_name, t0, t1, parent, 1});
        }
      }
    });
  }
  // Open loop: write k is due at start + k / rate whether or not earlier
  // writes finished, and is timed from its due time.
  threads.emplace_back([&] {
    const auto period = static_cast<std::int64_t>(1e9 / kLiveWritesPerSecond);
    for (std::size_t k = 0; !writes.empty(); ++k) {
      const std::int64_t due = start + static_cast<std::int64_t>(k) * period;
      SleepUntilNs(due);
      if (stop.load()) break;
      const std::string& path =
          trace.documents[writes[k % writes.size()].doc].path;
      const std::int64_t t0 = WallNs();
      server.TouchDocument(path);
      const std::int64_t t1 = WallNs();
      writer_log.lag_us_max =
          std::max(writer_log.lag_us_max, static_cast<double>(t0 - due) / 1e3);
      writer_log.write_us.Record(static_cast<double>(t1 - due) / 1e3);
      writer_log.touch_us.Record(static_cast<double>(t1 - t0) / 1e3);
      if (spans != nullptr) {
        writer_log.spans.push_back({touch_name, t0, t1, parent, 1});
      }
    }
  });

  const int slices = std::max(1, static_cast<int>(std::lround(params.seconds)));
  const auto slice_ns = static_cast<std::int64_t>(params.seconds * 1e9 / slices);
  std::int64_t previous_time = start;
  std::uint64_t previous_count = 0;
  for (int s = 1; s <= slices; ++s) {
    SleepUntilNs(start + s * slice_ns);
    const std::int64_t now = WallNs();
    const std::uint64_t count = fetched.load();
    outcome.slices.push_back({{previous_time, now}, count - previous_count});
    previous_time = now;
    previous_count = count;
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  window_span.reset();

  for (ClientLog& log : clients) {
    outcome.failed_fetches += log.failed;
    outcome.hit_us.Merge(log.hit_us);
    outcome.miss_us.Merge(log.miss_us);
    if (spans != nullptr) spans->Append(log.spans);
  }
  outcome.fetches += fetched.load();
  outcome.write_us = std::move(writer_log.write_us);
  outcome.touch_us = std::move(writer_log.touch_us);
  outcome.writer_lag_us_max = writer_log.lag_us_max;
  if (spans != nullptr) spans->Append(writer_log.spans);

  // Pushes are written before TouchDocument returns, but the proxy applies
  // them on its own thread: give it a bounded moment to catch up.
  const std::int64_t settle_deadline = WallNs() + 5'000'000'000;
  while (proxy.invalidations_received() < server.invalidations_pushed() &&
         WallNs() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  outcome.invalidations_pushed = server.invalidations_pushed();
  outcome.invalidations_received = proxy.invalidations_received();
  outcome.frames_pushed = server.invalidation_frames_pushed();
  outcome.push_failures = server.pushes_timed_out() + server.pushes_refused();

  if (spans != nullptr) {
    // One request straight to the server per call, without the proxy.
    const std::string client = live::MakeClientId("exchange-probe", proxy.port());
    for (std::size_t i = 0; i < 2000; ++i) {
      net::Request request;
      request.url = trace.documents[records[i % records.size()].doc].path;
      request.client_id = client;
      const std::string line = net::EncodeLine(request);
      ScopedSpan span(spans, "live.Exchange");
      const std::int64_t t0 = WallNs();
      const std::optional<std::string> reply =
          live::Exchange(server.port(), line);
      outcome.exchange_us.Record(static_cast<double>(WallNs() - t0) / 1e3);
      if (!reply.has_value() || !net::DecodeLine(*reply).has_value()) {
        ++outcome.failed_exchanges;
      }
    }
  }
  return outcome;
}

void CheckLive(const LiveOutcome& outcome, RunResult& result) {
  const std::uint64_t frames_attempted =
      outcome.frames_pushed + outcome.push_failures;
  result.attempted +=
      outcome.fetches + frames_attempted + outcome.exchange_us.count();
  result.failed += outcome.failed_fetches + outcome.push_failures +
                   outcome.failed_exchanges;
  result.Check(outcome.failed_fetches == 0,
               std::to_string(outcome.failed_fetches) + " live fetches failed");
  result.Check(outcome.push_failures == 0,
               std::to_string(outcome.push_failures) +
                   " invalidation pushes failed");
  result.Check(outcome.failed_exchanges == 0,
               std::to_string(outcome.failed_exchanges) +
                   " server exchanges failed");
  result.Check(outcome.invalidations_received == outcome.invalidations_pushed,
               "proxy received " +
                   std::to_string(outcome.invalidations_received) +
                   " invalidations, server pushed " +
                   std::to_string(outcome.invalidations_pushed));
  result.Check(outcome.write_us.count() > 0, "the live writer made no writes");
}

RunResult MeasureLive(const RunOptions& options, const HostGauge& gauge) {
  RunResult result;
  std::vector<Interval> generations;
  const Inputs inputs = SetUp(options, 0.0, generations);
  const ReplayCell& cell = inputs.cells.front();
  LiveOutcome outcome = RunLive(*cell.config.trace, ProbeWrites(cell),
                                LiveParamsFor(options), nullptr);
  CheckLive(outcome, result);
  if (options.seed == 1 && !options.smoke) {
    const Pin pin = PinFor(options.workload);
    result.Check(inputs.digest == pin.digest,
                 "seed 1 workload digest " + std::to_string(inputs.digest) +
                     " != pinned " + std::to_string(pin.digest));
  }

  std::vector<double> setup_seconds;
  for (std::size_t i = 0; i < outcome.setups.size(); ++i) {
    setup_seconds.push_back(gauge.ScaledSeconds(generations[i]) +
                            gauge.ScaledSeconds(outcome.setups[i]));
  }
  std::fprintf(stderr,
               "webcc_bench: live_loopback: %llu fetches, %llu writes, %llu "
               "invalidations pushed; scaled ns per fetch by slice:",
               static_cast<unsigned long long>(outcome.fetches),
               static_cast<unsigned long long>(outcome.write_us.count()),
               static_cast<unsigned long long>(outcome.invalidations_pushed));
  std::vector<double> slice_ns_per_fetch;
  for (const LiveOutcome::Slice& slice : outcome.slices) {
    const Interval& window = slice.window;
    slice_ns_per_fetch.push_back(
        gauge.Scale(window) *
        static_cast<double>(window.end_ns - window.start_ns) /
        static_cast<double>(std::max<std::uint64_t>(1, slice.fetches)));
    std::fprintf(stderr, " %.0f", slice_ns_per_fetch.back());
  }
  std::fprintf(stderr, "\n");
  const double ns_per_fetch = Median(slice_ns_per_fetch);
  result.Add("ns_per_request", ns_per_fetch, "ns");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("setup_s", Median(setup_seconds), "s");
  if (!outcome.slices.empty()) {
    result.AddFileOnly(
        "host_burst_us",
        gauge.BurstNs({outcome.slices.front().window.start_ns,
                       outcome.slices.back().window.end_ns}) /
            1e3,
        "us");
  }

  LatencyHistogram fetch_us = outcome.hit_us;
  fetch_us.Merge(outcome.miss_us);
  result.AddFileOnly("live_requests_per_s", Ratio(1e9, ns_per_fetch), "1/s");
  result.AddFileOnly("live_fetch_p50_us", fetch_us.Percentile(50), "us");
  result.AddFileOnly("live_fetch_p99_us", fetch_us.Percentile(99), "us");
  result.AddFileOnly("live_write_p50_us", outcome.write_us.Percentile(50),
                     "us");
  result.AddFileOnly("live_write_p90_us", outcome.write_us.Percentile(90),
                     "us");
  return result;
}

void AddLiveLayerMetrics(const LiveOutcome& outcome, RunResult& result) {
  LatencyHistogram all = outcome.hit_us;
  all.Merge(outcome.miss_us);
  const auto writes = static_cast<double>(outcome.write_us.count());
  result.Add("live.fetch_us_p50", all.Percentile(50), "us");
  result.Add("live.fetch_us_p99", all.Percentile(99), "us");
  result.Add("live.hit_fetch_us_p50", outcome.hit_us.Percentile(50), "us");
  result.Add("live.miss_fetch_us_p50", outcome.miss_us.Percentile(50), "us");
  result.Add("live.local_hit_ratio",
             Ratio(static_cast<double>(outcome.hit_us.count()),
                   static_cast<double>(all.count())),
             "ratio");
  result.Add("live.write_us_p50", outcome.write_us.Percentile(50), "us");
  result.Add("live.write_us_p90", outcome.write_us.Percentile(90), "us");
  result.Add("live.touch_us_p50", outcome.touch_us.Percentile(50), "us");
  result.Add("live.exchange_us_p50", outcome.exchange_us.Percentile(50), "us");
  result.Add("live.invalidations_per_write",
             Ratio(static_cast<double>(outcome.invalidations_pushed), writes),
             "ratio");
  result.Add("live.frames_per_write",
             Ratio(static_cast<double>(outcome.frames_pushed), writes),
             "ratio");
  result.Add("live.push_failures", static_cast<double>(outcome.push_failures),
             "count");
  result.Add("live.writer_lag_us_max", outcome.writer_lag_us_max, "us");
}

}  // namespace webcc::bench
