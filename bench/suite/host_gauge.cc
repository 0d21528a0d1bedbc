#include "host_gauge.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"

namespace webcc::bench {
namespace {

// 4096 bursts at one per ~13 ms: the ring holds the last ~50 s, more than
// any window a run asks about (a pass, a set-up or a one-second slice).
constexpr std::uint64_t kCapacity = 4096;
// A burst takes 0.3-0.9 ms on the reference host, so the gauge takes about
// 3-7% of the CPU it shares with the workload.
constexpr auto kPause = std::chrono::milliseconds(12);
constexpr std::size_t kMinSamples = 3;
// The first bursts run on a table still hot from being built.
constexpr std::uint64_t kWarmBursts = 10;

volatile std::uint64_t g_sink = 0;  // keeps the memory burst's loads alive

// CPU time of the whole gauge process: the loopback burst's two threads
// both work for it. CPU time, not wall time: the gauge waits its turn on
// the workload's CPU, and that wait is not the host's speed.
std::int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// A burst is two parts of about equal length. The first looks up random
// keys of a table (~6 MiB, past a core's private cache) and allocates a
// short string per lookup: alone, it slows about twice as much as the
// replay workloads when the host is loaded. The second follows a chain of
// dependent loads through 64 MiB, bound by memory latency: alone, it slows
// several times less. Together they slow about as much as the workloads
// with large working sets, and less than those that live in the caches
// (GaugeFor in workloads.cc; README.md).
class MemoryBurst {
 public:
  MemoryBurst() : chain_(kChainEntries) {
    table_.reserve(kTableEntries);
    for (std::uint64_t i = 0; i < kTableEntries; ++i) {
      table_.emplace(KeyOf(i), i);
    }
    // A full-period linear congruential map over 2^24 entries: one cycle
    // through all of them, in an order the prefetchers cannot follow.
    for (std::uint32_t i = 0; i < kChainEntries; ++i) {
      chain_[i] = (i * 1664525u + 1013904223u) & (kChainEntries - 1);
    }
    strings_.reserve(kLookups);
  }

  void operator()() {
    std::uint64_t sum = 0;
    for (int i = 0; i < kLookups; ++i) {
      state_ ^= state_ << 13;  // xorshift64
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      sum += table_.find(KeyOf(state_ % kTableEntries))->second;
      strings_.push_back(std::make_unique<std::string>(32 + state_ % 64, 'x'));
    }
    strings_.clear();
    for (int i = 0; i < kChainSteps; ++i) at_ = chain_[at_];
    g_sink = sum + at_;
  }

 private:
  static constexpr std::uint64_t kTableEntries = 1 << 17;
  static constexpr int kLookups = 1280;
  static constexpr std::uint32_t kChainEntries = 1u << 24;
  static constexpr int kChainSteps = 1280;

  static std::uint64_t KeyOf(std::uint64_t i) {
    return i * 0x9e3779b97f4a7c15ull;
  }

  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::vector<std::uint32_t> chain_;
  std::vector<std::unique_ptr<std::string>> strings_;
  std::uint64_t state_ = 0x2545f4914f6cdd1dull;
  std::uint32_t at_ = 0;
};

bool WriteAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::read(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

int Checked(int result, const char* what) {
  if (result < 0) throw std::runtime_error(std::string("host gauge: ") + what);
  return result;
}

// Round trips over one loopback TCP connection to an echo thread: system
// calls, the loopback TCP path and a thread switch per direction, which is
// what a live fetch costs. An established connection, where a fetch opens
// one per request: the per-slice time of live_loopback went as this
// burst's time to the power 1.0 (correlation 0.97; README.md).
class LoopbackBurst {
 public:
  LoopbackBurst() {
    const int listener = Checked(::socket(AF_INET, SOCK_STREAM, 0), "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(addr);
    auto* address = reinterpret_cast<sockaddr*>(&addr);
    Checked(::bind(listener, address, sizeof(addr)), "bind");
    Checked(::listen(listener, 1), "listen");
    Checked(::getsockname(listener, address, &length), "getsockname");
    client_ = Checked(::socket(AF_INET, SOCK_STREAM, 0), "socket");
    Checked(::connect(client_, address, sizeof(addr)), "connect");
    const int peer = Checked(::accept(listener, nullptr, nullptr), "accept");
    ::close(listener);
    const int one = 1;
    for (const int fd : {client_, peer}) {
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    // The echo thread ends with the gauge process.
    std::thread([peer] {
      char buffer[kMessageBytes];
      for (;;) {
        const ssize_t n = ::read(peer, buffer, sizeof(buffer));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0 ||
            !WriteAll(peer, buffer, static_cast<std::size_t>(n))) {
          _exit(1);
        }
      }
    }).detach();
  }

  void operator()() {
    char message[kMessageBytes] = {};
    for (int i = 0; i < kRoundTrips; ++i) {
      if (!WriteAll(client_, message, sizeof(message)) ||
          !ReadAll(client_, message, sizeof(message))) {
        _exit(1);
      }
    }
  }

 private:
  static constexpr int kRoundTrips = 40;
  static constexpr std::size_t kMessageBytes = 100;

  int client_ = -1;
};

double NominalNs(GaugeConfig::Burst burst) {
  return burst == GaugeConfig::Burst::kMemory ? 600'000.0 : 300'000.0;
}

}  // namespace

struct HostGauge::Shared {
  struct Sample {
    std::atomic<std::int64_t> start_ns{0};
    std::atomic<std::int64_t> burst_ns{0};
  };
  std::atomic<std::uint64_t> count{0};  // bursts published so far
  Sample samples[kCapacity];             // burst n in samples[n % kCapacity]
};

void HostGauge::Run(Shared* shared, pid_t parent, GaugeConfig::Burst kind) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(0);  // the parent died before prctl
  try {
    std::function<void()> burst;
    if (kind == GaugeConfig::Burst::kMemory) {
      burst = [memory = std::make_shared<MemoryBurst>()] { (*memory)(); };
    } else {
      burst = LoopbackBurst();
    }
    for (std::uint64_t n = 0;; ++n) {
      const std::int64_t start = WallNs();
      const std::int64_t cpu_start = ProcessCpuNs();
      burst();
      const std::int64_t burst_ns = ProcessCpuNs() - cpu_start;
      Shared::Sample& sample = shared->samples[n % kCapacity];
      sample.start_ns.store(start, std::memory_order_relaxed);
      sample.burst_ns.store(burst_ns, std::memory_order_relaxed);
      shared->count.store(n + 1, std::memory_order_release);
      std::this_thread::sleep_for(kPause);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "webcc_bench: %s\n", error.what());
  }
  _exit(1);
}

namespace {

void Reap(pid_t pid) {
  kill(pid, SIGKILL);
  while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

HostGauge::HostGauge(const GaugeConfig& config)
    : config_(config), nominal_ns_(NominalNs(config.burst)) {
  WallNs();  // fixes the clock's epoch before the fork, so both share it
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) != 0) {
        std::perror("webcc_bench: sched_setaffinity");
      }
      break;
    }
  }

  void* memory = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (memory == MAP_FAILED) throw std::runtime_error("host gauge: mmap failed");
  shared_ = new (memory) Shared();
  const pid_t parent = getpid();
  pid_ = fork();  // the child inherits the pinning
  if (pid_ == 0) Run(shared_, parent, config.burst);
  if (pid_ < 0) {
    munmap(shared_, sizeof(Shared));
    throw std::runtime_error("host gauge: fork failed");
  }
  const std::int64_t deadline = WallNs() + 10'000'000'000;
  while (shared_->count.load(std::memory_order_acquire) < kWarmBursts) {
    if (!Running() || WallNs() > deadline) {
      Reap(pid_);
      munmap(shared_, sizeof(Shared));
      throw std::runtime_error("host gauge: not warm within 10 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

HostGauge::~HostGauge() {
  Reap(pid_);
  munmap(shared_, sizeof(Shared));
}

bool HostGauge::Running() const {
  // WNOWAIT leaves an ended gauge to Reap.
  siginfo_t info{};
  return waitid(P_PID, static_cast<id_t>(pid_), &info,
                WEXITED | WNOHANG | WNOWAIT) == 0 &&
         info.si_pid == 0;
}

std::vector<double> HostGauge::Bursts(const Interval& window) const {
  const std::uint64_t count = shared_->count.load(std::memory_order_acquire);
  std::vector<double> inside;
  std::vector<double> latest;  // the last kMinSamples before the window ends
  // Newest first; slots older than kCapacity - 1 bursts may be rewritten.
  for (std::uint64_t n = count; n-- > 0 && count - n < kCapacity;) {
    const Shared::Sample& sample = shared_->samples[n % kCapacity];
    const std::int64_t start = sample.start_ns.load(std::memory_order_relaxed);
    if (start >= window.end_ns) continue;
    if (start < window.start_ns && latest.size() >= kMinSamples) break;
    const auto ns =
        static_cast<double>(sample.burst_ns.load(std::memory_order_relaxed));
    if (start >= window.start_ns) inside.push_back(ns);
    if (latest.size() < kMinSamples) latest.push_back(ns);
  }
  return inside.size() >= kMinSamples ? inside : latest;
}

double HostGauge::BurstNs(const Interval& window) const {
  return Median(Bursts(window));
}

double HostGauge::Scale(const Interval& window) const {
  // Bursts come at an even pace, so each stands for an equal share of the
  // window: the work would have taken the mean of their factors times the
  // window at the nominal speed. The factor of the median burst tracks a
  // window that straddles a change of host speed less well.
  double sum = 0.0;
  std::size_t count = 0;
  for (const double burst : Bursts(window)) {
    if (burst <= 0.0) continue;
    sum += std::pow(nominal_ns_ / burst, config_.elasticity);
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 1.0;
}

double HostGauge::ScaledSeconds(const Interval& window) const {
  return Scale(window) * static_cast<double>(window.end_ns - window.start_ns) /
         1e9;
}

}  // namespace webcc::bench
