#include "replay/farm.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "util/thread_annotations.h"

namespace webcc::replay {
namespace {

// The batch's JSONL in submission order. `written_` replays have reached
// `out_`; the replay at that index, once it has begun, is the only writer
// of `out_` outside the lock, and its End() hands the stream on.
class OrderedStream {
 public:
  OrderedStream(std::ostream& out, std::size_t replays)
      : out_(out), parts_(replays) {}

  // Where replay `index` writes its trace: `out_` itself when every earlier
  // replay is written, otherwise a private buffer.
  std::ostream& Begin(std::size_t index) {
    const util::MutexLock lock(mu_);
    if (index == written_) return out_;
    parts_[index].buffer = std::make_unique<std::ostringstream>();
    return *parts_[index].buffer;
  }

  // Marks replay `index` finished and writes out every finished buffer
  // that now follows the written prefix.
  void End(std::size_t index) {
    const util::MutexLock lock(mu_);
    parts_[index].done = true;
    for (; written_ < parts_.size() && parts_[written_].done; ++written_) {
      std::unique_ptr<std::ostringstream>& buffer = parts_[written_].buffer;
      if (buffer != nullptr) {
        out_ << std::move(*buffer).str();
        buffer.reset();
      }
    }
  }

 private:
  struct Part {
    std::unique_ptr<std::ostringstream> buffer;  // null when streamed
    bool done = false;
  };

  std::ostream& out_;
  util::Mutex mu_;
  std::vector<Part> parts_ WEBCC_GUARDED_BY(mu_);
  std::size_t written_ WEBCC_GUARDED_BY(mu_) = 0;
};

}  // namespace

std::vector<ReplayMetrics> RunAll(const std::vector<ReplayConfig>& configs,
                                  unsigned workers, std::ostream* jsonl) {
  std::vector<ReplayMetrics> results(configs.size());
  std::optional<OrderedStream> stream;
  if (jsonl != nullptr) stream.emplace(*jsonl, configs.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < configs.size(); i = next++) {
      if (!stream.has_value()) {
        results[i] = RunReplay(configs[i]);
        continue;
      }
      obs::JsonlTraceSink sink(stream->Begin(i));
      ReplayConfig config = configs[i];
      config.trace_sink = &sink;
      results[i] = RunReplay(config);
      stream->End(i);
    }
  };

  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(workers, configs.size());
  {
    std::vector<std::jthread> pool;  // joined at the end of this block
    for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
    work();
  }
  return results;
}

}  // namespace webcc::replay
