// Host-speed gauge: how fast this machine runs a fixed piece of work right
// now.
//
// The benchmark's host is a few CPUs of a shared machine whose caches,
// memory and kernel paths other tenants load and unload over minutes. That
// moves every workload's time per request by up to a factor of two with no
// change in the code. A fixed burst of the kind of work the workload does
// (host_gauge.cc), run every few milliseconds on the workload's own CPU,
// slows by about the same share; a gauge on another CPU does not track it.
// Timed beside the workload, the burst lets a run scale its own times to
// one nominal host speed.
//
// The bursts use no code of the repository, so a change to the code under
// test never changes the gauge.
#pragma once

#include <sys/types.h>

#include <vector>

#include "bench.h"

namespace webcc::bench {

struct GaugeConfig {
  enum class Burst {
    // Random lookups in a 6 MiB hash table with a short allocation each,
    // then dependent loads through 64 MiB: the replay workloads' kind of
    // work. Nominal burst 600 us.
    kMemory,
    // 40 round trips of a 100-byte message over one loopback TCP
    // connection between two threads: live_loopback's kind of work.
    // Nominal burst 300 us.
    kLoopback,
  };
  Burst burst = Burst::kMemory;
  // The workload's time goes as the burst's time to this power.
  double elasticity = 1.0;
};

class HostGauge {
 public:
  // Pins this process to its first allowed CPU, forks the gauge process
  // onto the same CPU, and waits until the gauge has warmed up. Call
  // before starting any thread: the workload's threads inherit the
  // pinning.
  explicit HostGauge(const GaugeConfig& config);
  // Kills the gauge process and waits for it to end.
  ~HostGauge();
  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  // Whether the gauge process is still bursting. A run whose gauge ended
  // has no scale for its later windows.
  bool Running() const;

  // Median CPU time in ns of the bursts that started within `window`, or
  // of the last three that started before its end when it holds fewer.
  double BurstNs(const Interval& window) const;

  // Factor that scales a time measured within `window` to the nominal host
  // speed: the mean over those same bursts of
  // (nominal burst / burst) ^ elasticity.
  double Scale(const Interval& window) const;

  // `window`'s own length, scaled, in seconds.
  double ScaledSeconds(const Interval& window) const;

 private:
  struct Shared;  // the burst ring both processes map
  // CPU times in ns of the bursts BurstNs describes.
  std::vector<double> Bursts(const Interval& window) const;

  // The gauge process: bursts until killed; never returns.
  [[noreturn]] static void Run(Shared* shared, pid_t parent,
                               GaugeConfig::Burst burst);

  GaugeConfig config_;
  double nominal_ns_;
  Shared* shared_ = nullptr;
  pid_t pid_ = -1;
};

}  // namespace webcc::bench
