// Replay configuration: everything Section 5.1's methodology parameterizes.
//
// The replay reproduces the paper's testbed: one pseudo-server (origin +
// accelerator + modifier) and a handful of pseudo-clients, each running a
// proxy cache and replaying its share of the trace's real clients (clientid
// mod num_pseudo_clients). A time coordinator advances simulated trace time
// in lock-step intervals; within an interval each pseudo-client issues its
// requests back-to-back, waiting for each reply (closed loop), exactly like
// the paper's replay programs. Wall (performance) time is therefore
// compressed relative to trace time; protocol decisions — TTLs, leases,
// mtime comparisons — run on trace time, while latency and utilization are
// measured in wall time.
//
// The testbed's service costs (server CPU and disk, the replay program's
// think time, a proxy's hit and forward times) are not settings: the paper
// measures on one testbed, and the engine charges its costs as constants
// (replay/engine_impl.h).
#pragma once

#include <cstdint>
#include <vector>

#include "core/policy.h"
#include "fault/plan.h"
#include "http/proxy_cache.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "sim/network.h"
#include "trace/modifier.h"
#include "trace/record.h"
#include "util/time.h"

namespace webcc::replay {

struct ReplayConfig {
  core::Protocol protocol = core::Protocol::kInvalidation;

  // The trace to replay (non-owning; must outlive the run).
  const trace::Trace* trace = nullptr;

  // Modifier process: mean file lifetime (Tables 3/4 sample 2.5-50 days).
  Time mean_lifetime = 50 * kDay;
  std::uint64_t modifier_seed = 42;
  // When non-empty, replaces the generated modifier schedule.
  std::vector<trace::ModEvent> explicit_modifications;
  // When true, an empty `explicit_modifications` means *no* writes instead
  // of "derive a modifier schedule from mean_lifetime". A generated
  // scenario replays as its trace plus its write stream with this set, so
  // a read-only scenario stays read-only.
  bool suppress_generated_modifications = false;

  std::uint32_t num_pseudo_clients = 4;

  // Proxy cache capacity (unscaled bytes) and eviction policy; Harvest's
  // expired-first policy is the paper's default.
  std::uint64_t proxy_cache_bytes = 128ull * 1024 * 1024;
  http::eviction::EvictionPolicyKind eviction_policy =
      http::eviction::EvictionPolicyKind::kExpiredFirstLru;

  // The paper replays with *separate* per-client caches (keys namespaced
  // url@client) because real client sites do not share caches. Setting this
  // true instead shares each pseudo-client's cache across its real clients
  // — the Section 7 firewall-proxy deployment, where the server tracks and
  // invalidates whole proxies rather than individual clients.
  bool shared_proxy_cache = false;

  // Hierarchical caching (the Worrell [14] configuration the paper
  // contrasts itself against): a parent proxy sits between the leaf
  // proxies and the server. Leaf misses go to the parent, which serves
  // them from its shared cache when it can; the server only ever tracks
  // and invalidates the parent, which forwards invalidations to the leaf
  // proxies that fetched the document. Only meaningful with
  // Protocol::kInvalidation.
  bool hierarchical = false;

  sim::NetworkConfig network = sim::NetworkConfig::Lan();

  // A request with no reply times out and the closed loop moves on. The
  // default is deliberately long: the paper's replay programs wait
  // indefinitely, and a request stalled behind a serialized invalidation
  // fan-out must complete so its (large) latency is measured. Failure
  // experiments lower this to ride out dead servers.
  Time request_timeout = 10 * kMinute;

  core::AdaptiveTtlConfig ttl;
  core::LeaseConfig lease;

  // The paper's prototype sends all invalidations for a modification before
  // accepting new requests (shared FIFO CPU); false models the suggested
  // fix of a decoupled sender.
  bool serialized_invalidation = true;

  // Section 5.2's other suggested fix: "or use multicast schemes". With
  // multicast the server pays one send (CPU and bytes) per modification
  // regardless of list length; deliveries still reach each site
  // individually and all consistency bookkeeping is unchanged.
  bool multicast_invalidation = false;

  // Accelerator shards: the invalidation table (and its write-ahead
  // journal) is split across this many shards by consistent-hashed URL,
  // and decoupled mode runs one dedicated sender per shard. 1 reproduces
  // the paper's single accelerator. Protocol decisions and (in serialized
  // mode) all replay metrics except sitelist_storage_bytes are invariant
  // in this knob — tests/test_shard.cc proves it.
  std::uint32_t accelerator_shards = 1;

  // Batched fan-out: when > 0 (and invalidation sending is decoupled and
  // unicast), invalidations wait in a per-shard outbox for this long so a
  // drain can pack everything destined for one site into a single INVB
  // frame, coalescing duplicate (site, url) pairs across writes. 0 sends
  // each invalidation in its own frame (the pre-batching behavior).
  // Ignored under serialized/multicast/hierarchical configurations.
  Time invalidation_batch_window = 0;

  Time lockstep_interval = 5 * kMinute;

  // --- fault injection (src/fault/) ----------------------------------------
  // A declarative fault plan (non-owning; must outlive the run), the only
  // failure input. Each crash or partition event becomes an onset and a
  // recovery, keyed by trace time, that fire at the start of the first
  // lock-step interval covering them; link-fault windows drive a seeded
  // FaultClock installed on the sim network, so the whole scenario replays
  // bit-identically for a given (plan, fault_seed).
  const fault::FaultPlan* fault_plan = nullptr;
  std::uint64_t fault_seed = 0;

  // Server-recovery flavour. true: the accelerator journals registrations
  // and invalidations write-ahead and a restart rebuilds its site lists from
  // the journal, sending *targeted* invalidations only for documents that
  // changed during the downtime. false: the paper's blanket INVSRV
  // broadcast to every site ever seen. Only takes effect when a server
  // crash is actually scheduled (journaling is off otherwise).
  bool journaled_recovery = true;

  // Seeds initial document ages (exponential with mean_lifetime, predating
  // the trace) so adaptive TTL sees a realistic age distribution at t=0.
  std::uint64_t seed = 7;

  // When >= 0, every document starts exactly this old instead of sampling
  // from the exponential (used by tests that need the TTL trajectory to be
  // predictable).
  Time fixed_initial_age = -1;

  // --- observability (webcc::obs) -----------------------------------------
  // Structured trace sink, threaded through the engine, caches, accelerator
  // and network. Non-owning; nullptr (the default) disables tracing with one
  // untaken branch per event site. Protocol decisions never read the sink,
  // so enabling tracing cannot change a simulation.
  obs::TraceSink* trace_sink = nullptr;

  // When set, Engine::Run() snapshots the full metric superset (ReplayMetrics
  // plus component-level counters) into this registry at end of run.
  // Non-owning; use one registry per run (the farm runs configs
  // concurrently).
  obs::MetricsRegistry* metrics = nullptr;
};

}  // namespace webcc::replay
