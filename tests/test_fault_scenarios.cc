// Property-based fault scenarios (ctest -L fault): the strong protocols
// must keep their consistency contract under randomized crash / partition /
// lossy-link schedules, every scenario must replay bit-identically (same
// per-seed trace digest across repeated runs and across farm worker
// counts), the weak protocol's staleness stays bounded by its TTL, a
// partition during a write blocks it for at most one lease duration
// (Section 6), and the golden corpus under tests/data/fault_plans/ pins
// whole scenarios to expected metrics and trace digests.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/sharded_accelerator.h"
#include "fault/plan.h"
#include "http/document_store.h"
#include "net/message.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "replay/engine.h"
#include "replay/farm.h"
#include "trace/workload.h"
#include "util/time.h"

namespace webcc::replay {
namespace {

using core::Protocol;

// One shared workload for every scenario: small enough that ~150 fault
// replays stay fast, busy enough that random fault windows hit real
// traffic.
const trace::Trace& ScenarioTrace() {
  static const trace::Trace trace = [] {
    trace::WorkloadConfig config;
    config.duration = 2 * kHour;
    config.total_requests = 900;
    config.num_documents = 80;
    config.num_clients = 40;
    config.seed = 5;
    return trace::GenerateTrace(config);
  }();
  return trace;
}

ReplayConfig FaultBaseConfig(Protocol protocol) {
  ReplayConfig config;
  config.protocol = protocol;
  config.trace = &ScenarioTrace();
  config.mean_lifetime = 6 * kHour;  // plenty of writes to race faults with
  // Ride out dead servers and partitions instead of stalling the loop.
  config.client_costs.request_timeout = 5 * kSecond;
  return config;
}

fault::RandomPlanConfig ScenarioPlanConfig() {
  fault::RandomPlanConfig config;
  config.horizon = ScenarioTrace().duration;
  config.clients = 4;  // targets are pseudo-client indices
  return config;
}

// --- randomized fault schedules: zero strong violations --------------------------

void RunStrongSeeds(const ReplayConfig& base, int seeds) {
  const fault::RandomPlanConfig plan_config = ScenarioPlanConfig();
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    const fault::FaultPlan plan = fault::Random(plan_config, seed);
    ReplayConfig config = base;
    config.fault_plan = &plan;
    config.fault_seed = seed;
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(metrics.strong_violations, 0u) << "fault seed " << seed;
    // Stale serves are legal only while the write is still incomplete; all
    // writes must eventually complete even under faults.
    EXPECT_EQ(metrics.stale_serves,
              metrics.stale_while_invalidation_in_flight)
        << "fault seed " << seed;
  }
}

TEST(FaultScenarios, InvalidationSurvives50RandomPlans) {
  RunStrongSeeds(FaultBaseConfig(Protocol::kInvalidation), 50);
}

TEST(FaultScenarios, InvalidationTwoTierLeaseSurvives50RandomPlans) {
  ReplayConfig config = FaultBaseConfig(Protocol::kInvalidation);
  config.lease.mode = core::LeaseMode::kTwoTier;
  config.lease.duration = 20 * kMinute;
  config.lease.short_duration = 5 * kMinute;
  RunStrongSeeds(config, 50);
}

TEST(FaultScenarios, PollEveryTimeSurvives50RandomPlans) {
  RunStrongSeeds(FaultBaseConfig(Protocol::kPollEveryTime), 50);
}

// --- determinism: per-seed digests across runs and worker counts -----------------

TEST(FaultScenarios, DigestsIdenticalAcrossRunsAndWorkerCounts) {
  const fault::RandomPlanConfig plan_config = ScenarioPlanConfig();
  std::vector<fault::FaultPlan> plans;
  plans.reserve(6);
  for (std::uint64_t seed = 101; seed <= 106; ++seed) {
    plans.push_back(fault::Random(plan_config, seed));
  }
  const auto make_configs = [&plans] {
    std::vector<ReplayConfig> configs;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      ReplayConfig config = FaultBaseConfig(Protocol::kInvalidation);
      if (i % 2 == 1) {
        config.lease.mode = core::LeaseMode::kTwoTier;
        config.lease.duration = 20 * kMinute;
        config.lease.short_duration = 5 * kMinute;
      }
      config.fault_plan = &plans[i];
      config.fault_seed = 101 + i;
      configs.push_back(config);
    }
    return configs;
  };

  struct RunOutput {
    std::vector<ReplayMetrics> metrics;
    std::string trace_text;
  };
  const auto run_with_workers = [&make_configs](unsigned workers) {
    RunOutput out;
    obs::BufferTraceSink merged;
    Farm farm(workers);
    farm.set_merged_trace_sink(&merged);
    for (ReplayConfig& config : make_configs()) farm.Submit(std::move(config));
    out.metrics = farm.Collect();
    out.trace_text = merged.TakeText();
    return out;
  };

  const RunOutput serial_a = run_with_workers(1);
  const RunOutput serial_b = run_with_workers(1);
  const RunOutput farmed = run_with_workers(8);

  ASSERT_EQ(serial_a.metrics.size(), plans.size());
  ASSERT_FALSE(serial_a.trace_text.empty());
  // Same scenario, same seed, any schedule: identical simulation, identical
  // byte stream, identical digest.
  EXPECT_EQ(obs::DigestJsonl(serial_a.trace_text),
            obs::DigestJsonl(serial_b.trace_text));
  EXPECT_EQ(obs::DigestJsonl(serial_a.trace_text),
            obs::DigestJsonl(farmed.trace_text));
  EXPECT_EQ(serial_a.trace_text, farmed.trace_text);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_TRUE(SameSimulation(serial_a.metrics[i], serial_b.metrics[i]))
        << "job " << i;
    EXPECT_TRUE(SameSimulation(serial_a.metrics[i], farmed.metrics[i]))
        << "job " << i;
    EXPECT_GT(serial_a.metrics[i].injected_drops +
                  serial_a.metrics[i].injected_dups +
                  serial_a.metrics[i].injected_delays,
              0u)
        << "plan " << i << " injected nothing — scenario too tame";
  }
}

// --- weak protocol: staleness bounded by its TTL ---------------------------------

TEST(FaultScenarios, AdaptiveTtlStalenessBoundedByMaxTtl) {
  const fault::RandomPlanConfig plan_config = [] {
    fault::RandomPlanConfig config = ScenarioPlanConfig();
    config.allow_server_crash = false;  // weak protocols serve only on contact
    return config;
  }();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const fault::FaultPlan plan = fault::Random(plan_config, seed);
    ReplayConfig config = FaultBaseConfig(Protocol::kAdaptiveTtl);
    config.ttl.max_ttl = 30 * kMinute;
    config.fault_plan = &plan;
    config.fault_seed = seed;
    const ReplayMetrics metrics = RunReplay(config);
    // A copy is served only while its TTL holds, so its staleness can never
    // exceed the TTL cap (lock-step granularity absorbed).
    if (metrics.stale_age_ms.count() > 0) {
      EXPECT_LE(metrics.stale_age_ms.max(),
                ToMillis(config.ttl.max_ttl + config.lockstep_interval))
          << "fault seed " << seed;
    }
  }
}

// --- Section 6: a partition blocks a write for at most one lease ------------------

TEST(FaultScenarios, PartitionDuringWriteBoundedByLeaseDuration) {
  // Every proxy-server link is cut for 40 minutes starting at t=30m; every
  // document is modified 5 minutes into the partition. Without leases those
  // writes would block until the heal; with two-tier leases each write must
  // complete within one lease duration.
  fault::FaultPlan plan;
  plan.name = "partition-during-write";
  plan.events.push_back({.at = 30 * kMinute,
                         .kind = fault::FaultKind::kPartition,
                         .target = -1,
                         .duration = 40 * kMinute});

  ReplayConfig config = FaultBaseConfig(Protocol::kInvalidation);
  config.lease.mode = core::LeaseMode::kTwoTier;
  config.lease.duration = 20 * kMinute;
  config.lease.short_duration = 5 * kMinute;
  config.fault_plan = &plan;
  config.explicit_modifications.clear();
  for (trace::DocId doc = 0; doc < 80; ++doc) {
    config.explicit_modifications.push_back({35 * kMinute, doc});
  }

  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_GT(metrics.write_completions, 0u);
  // At least one write had a partitioned straggler resolved by the Section 6
  // lease bound instead of an ack.
  EXPECT_GT(metrics.write_lease_expired_completions, 0u);
  ASSERT_GT(metrics.write_blocked_trace_ms.count(), 0u);
  // The bound itself: no write stayed incomplete longer than the (regular)
  // lease duration, measured at lock-step granularity. The 40-minute
  // partition must NOT show through.
  EXPECT_LE(metrics.write_blocked_trace_ms.max(),
            ToMillis(config.lease.duration + config.lockstep_interval));
}

TEST(FaultScenarios, LeaselessPartitionedWriteBlocksUntilHealOrDeath) {
  // Contrast case for the bound above: same scenario without leases may
  // block writes well past one lease duration (heal or retry exhaustion is
  // the only way out) — showing the lease bound is what bounded it.
  fault::FaultPlan plan;
  plan.name = "partition-during-write-leaseless";
  plan.events.push_back({.at = 30 * kMinute,
                         .kind = fault::FaultKind::kPartition,
                         .target = -1,
                         .duration = 40 * kMinute});

  ReplayConfig config = FaultBaseConfig(Protocol::kInvalidation);
  config.fault_plan = &plan;
  for (trace::DocId doc = 0; doc < 80; ++doc) {
    config.explicit_modifications.push_back({35 * kMinute, doc});
  }
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_GT(metrics.write_completions, 0u);
}

// --- golden corpus ---------------------------------------------------------------

// Every golden plan runs under this one fixed configuration, so the files'
// expected values are comparable and regeneration is mechanical: on
// mismatch the failure message prints the full actual "expect" block to
// paste into the JSON.
std::map<std::string, std::string> RunGolden(const fault::FaultPlan& plan) {
  obs::BufferTraceSink sink;
  ReplayConfig config = FaultBaseConfig(Protocol::kInvalidation);
  config.lease.mode = core::LeaseMode::kTwoTier;
  config.lease.duration = 20 * kMinute;
  config.lease.short_duration = 5 * kMinute;
  config.fault_plan = &plan;
  config.fault_seed = 1;
  config.trace_sink = &sink;
  const ReplayMetrics metrics = RunReplay(config);

  std::map<std::string, std::string> actual;
  const auto put = [&actual](std::string_view name, std::uint64_t value) {
    actual[std::string(name)] = std::to_string(value);
  };
  put("requests_issued", metrics.requests_issued);
  put("strong_violations", metrics.strong_violations);
  put("stale_serves", metrics.stale_serves);
  put("invalidations_sent", metrics.invalidations_sent);
  put("invsrv_sent", metrics.invsrv_sent);
  put("recovery_invalidations_sent", metrics.recovery_invalidations_sent);
  put("write_completions", metrics.write_completions);
  put("write_lease_expired_completions",
      metrics.write_lease_expired_completions);
  put("journal_rebuilds", metrics.journal_rebuilds);
  put("journal_damaged_recoveries", metrics.journal_damaged_recoveries);
  put("injected_drops", metrics.injected_drops);
  put("injected_dups", metrics.injected_dups);
  put("injected_delays", metrics.injected_delays);
  put("trace_digest", obs::DigestJsonl(sink.Text()));
  return actual;
}

std::string FormatExpectBlock(const std::map<std::string, std::string>& m) {
  std::string out = "  \"expect\": {\n";
  for (auto it = m.begin(); it != m.end(); ++it) {
    out += "    \"" + it->first + "\": " + it->second;
    out += std::next(it) == m.end() ? "\n" : ",\n";
  }
  out += "  }";
  return out;
}

TEST(FaultGoldenCorpus, PlansReproduceExpectedMetricsAndDigests) {
  const std::filesystem::path dir =
      std::filesystem::path(WEBCC_TEST_DATA_DIR) / "fault_plans";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;

  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    SCOPED_TRACE(entry.path().filename().string());

    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    fault::FaultPlanFile file;
    std::string error;
    ASSERT_TRUE(fault::ParseFaultPlanFile(text.str(), file, error)) << error;
    ASSERT_FALSE(file.plan.empty());
    ASSERT_FALSE(file.expect.empty())
        << "golden plan has no expect block to check";

    const std::map<std::string, std::string> actual = RunGolden(file.plan);
    for (const auto& [name, expected] : file.expect) {
      const auto found = actual.find(name);
      ASSERT_NE(found, actual.end()) << "unknown expect metric: " << name;
      EXPECT_EQ(found->second, expected)
          << name << " drifted; full actual block:\n"
          << FormatExpectBlock(actual);
    }
  }
  // The corpus itself is under test: losing the files is a failure.
  EXPECT_GE(files, 3);
}

// --- piggyback protocols under link faults ---------------------------------------

// PCV and PSI under the lossy_links golden plan, whose links drop, duplicate
// and delay requests and replies. Pinned to the values the replay has always
// produced: the first copy of a request to reach the server takes its PCV
// batch (a duplicated or timed-out copy validates nothing), and a reply
// that lands after its request timed out still applies its piggyback.
TEST(FaultScenarios, PiggybackProtocolsUnderLossyLinks) {
  std::ifstream in(std::filesystem::path(WEBCC_TEST_DATA_DIR) / "fault_plans" /
                   "lossy_links.json");
  std::ostringstream text;
  text << in.rdbuf();
  fault::FaultPlanFile file;
  std::string error;
  ASSERT_TRUE(fault::ParseFaultPlanFile(text.str(), file, error)) << error;

  // The scenario workload at 3000 requests instead of 900, so PCV batches
  // and PSI notices cross the faulty links often.
  trace::WorkloadConfig workload;
  workload.duration = 2 * kHour;
  workload.total_requests = 3000;
  workload.num_documents = 80;
  workload.num_clients = 40;
  workload.seed = 5;
  const trace::Trace trace = trace::GenerateTrace(workload);

  struct Pinned {
    Protocol protocol;
    std::uint64_t trace_digest;
    std::uint64_t message_bytes;
    std::uint64_t pcv_items_piggybacked;
    std::uint64_t pcv_invalidated;
    std::uint64_t psi_notices;
    std::uint64_t psi_entries_erased;
    std::uint64_t request_timeouts;
    std::uint64_t injected_dups;
  };
  const Pinned pinned[] = {
      {Protocol::kPiggybackValidation, 14372563948308682191u, 13555817, 1037,
       73, 0, 0, 289, 109},
      {Protocol::kPiggybackInvalidation, 1413757777560515009u, 13404970, 0, 0,
       99, 156, 321, 117},
  };
  for (const Pinned& expect : pinned) {
    SCOPED_TRACE(core::ToString(expect.protocol));
    obs::BufferTraceSink sink;
    ReplayConfig config = FaultBaseConfig(expect.protocol);
    config.trace = &trace;
    config.fault_plan = &file.plan;
    config.fault_seed = 1;
    config.trace_sink = &sink;
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(obs::DigestJsonl(sink.Text()), expect.trace_digest);
    EXPECT_EQ(metrics.message_bytes, expect.message_bytes);
    EXPECT_EQ(metrics.pcv_items_piggybacked, expect.pcv_items_piggybacked);
    EXPECT_EQ(metrics.pcv_invalidated, expect.pcv_invalidated);
    EXPECT_EQ(metrics.psi_notices, expect.psi_notices);
    EXPECT_EQ(metrics.psi_entries_erased, expect.psi_entries_erased);
    EXPECT_EQ(metrics.request_timeouts, expect.request_timeouts);
    EXPECT_EQ(metrics.injected_dups, expect.injected_dups);
  }
}

// --- sharded tier under faults ---------------------------------------------------

// A server crash in the middle of a burst of writes, with the decoupled
// batched sender mid-flight: every shard must rebuild from its own journal,
// and the union of the rebuilt site lists must equal what the single-journal
// tier restores. Serialized-mode metrics are the strongest check (they are
// shard-invariant by construction, modulo the per-shard site-interning
// storage bytes).
TEST(FaultScenarios, ServerCrashJournalRecoveryShardInvariantSerialized) {
  fault::FaultPlan plan;
  plan.name = "crash-mid-write-storm";
  plan.events.push_back({.at = 40 * kMinute,
                         .kind = fault::FaultKind::kServerCrash,
                         .target = -1,
                         .duration = 2 * kMinute});

  const auto run = [&plan](std::uint32_t shards) {
    obs::BufferTraceSink sink;
    ReplayConfig config = FaultBaseConfig(Protocol::kInvalidation);
    config.lease.mode = core::LeaseMode::kTwoTier;
    config.lease.duration = 20 * kMinute;
    config.lease.short_duration = 5 * kMinute;
    config.fault_plan = &plan;
    config.accelerator_shards = shards;
    // Writes racing the crash window so the journal has fresh records.
    for (trace::DocId doc = 0; doc < 40; ++doc) {
      config.explicit_modifications.push_back({39 * kMinute, doc});
    }
    config.trace_sink = &sink;
    struct Out {
      ReplayMetrics metrics;
      std::string digest;
    } out;
    out.metrics = RunReplay(config);
    out.digest = obs::DigestJsonl(sink.TakeText());
    return out;
  };

  const auto baseline = run(1);
  EXPECT_GT(baseline.metrics.journal_rebuilds, 0u);
  EXPECT_EQ(baseline.metrics.journal_damaged_recoveries, 0u);
  EXPECT_EQ(baseline.metrics.strong_violations, 0u);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    auto sharded = run(shards);
    EXPECT_EQ(sharded.digest, baseline.digest) << shards << " shards";
    sharded.metrics.sitelist_storage_bytes =
        baseline.metrics.sitelist_storage_bytes;
    EXPECT_TRUE(SameSimulation(baseline.metrics, sharded.metrics))
        << shards << " shards";
  }
}

// The decoupled batched tier under the same crash: correctness invariants
// must hold at every shard count even though timing (and therefore the raw
// event interleaving) legitimately differs between shard counts here.
TEST(FaultScenarios, CrashDuringBatchedSendRecoversAtEveryShardCount) {
  fault::FaultPlan plan;
  plan.name = "crash-during-batched-send";
  plan.events.push_back({.at = 40 * kMinute,
                         .kind = fault::FaultKind::kServerCrash,
                         .target = -1,
                         .duration = 2 * kMinute});

  for (const std::uint32_t shards : {1u, 4u, 8u}) {
    ReplayConfig config = FaultBaseConfig(Protocol::kInvalidation);
    config.lease.mode = core::LeaseMode::kTwoTier;
    config.lease.duration = 20 * kMinute;
    config.lease.short_duration = 5 * kMinute;
    config.serialized_invalidation = false;
    config.invalidation_batch_window = 200 * kMillisecond;
    config.accelerator_shards = shards;
    config.fault_plan = &plan;
    // A write storm right before the crash puts whole batches in flight.
    for (trace::DocId doc = 0; doc < 40; ++doc) {
      config.explicit_modifications.push_back({39 * kMinute + 50 * doc, doc});
    }
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(metrics.strong_violations, 0u) << shards << " shards";
    EXPECT_EQ(metrics.stale_serves, metrics.stale_while_invalidation_in_flight)
        << shards << " shards";
    EXPECT_GT(metrics.journal_rebuilds, 0u) << shards << " shards";
    EXPECT_GT(metrics.invalidation_frames_sent, 0u) << shards << " shards";
    // Every queued invalidation is accounted for: delivered, coalesced into
    // a delivered entry, refused at a dead site, or still held for a site
    // the run ended partitioned from.
    EXPECT_LE(metrics.invalidations_delivered + metrics.invalidations_coalesced +
                  metrics.invalidations_refused,
              metrics.invalidations_sent)
        << shards << " shards";
  }
}

// --- hierarchy under faults ------------------------------------------------------

// A server crash under `hierarchical` sends every recovery notice to the
// parent proxy: with the journal, the targeted invalidations it forwards
// to the leaves that fetched each document; without it, the INVSRV it
// turns into a mark-everything-questionable notice for every leaf. A proxy
// crash over the pre-crash writes gets some leaf forwards refused. Both
// runs are pinned to their trace digest and push counters, and neither may
// serve a copy stale after its write completed.
TEST(FaultScenarios, HierarchyRecoveryNoticesReachEveryLeaf) {
  fault::FaultPlan plan;
  plan.name = "hierarchy-server-and-proxy-crash";
  // Each window spans whole 5-minute lock-step intervals.
  plan.events.push_back({.at = 30 * kMinute,
                         .kind = fault::FaultKind::kProxyCrash,
                         .target = 1,
                         .duration = 10 * kMinute});
  plan.events.push_back({.at = 40 * kMinute,
                         .kind = fault::FaultKind::kServerCrash,
                         .target = -1,
                         .duration = 10 * kMinute});

  struct Pinned {
    bool journal;
    std::uint64_t trace_digest;
    std::uint64_t invsrv_sent;
    std::uint64_t recovery_invalidations_sent;
    std::uint64_t hierarchy_forwards;
    std::uint64_t invalidations_delivered;
    std::uint64_t invalidations_refused;
    std::uint64_t write_completions;
    std::uint64_t message_bytes;
  };
  const Pinned pinned[] = {
      {true, 11158867615251961856u, 0, 12, 73, 102, 12, 40, 6860950},
      {false, 13781115085464904937u, 1, 0, 59, 72, 12, 40, 6940588},
  };
  for (const Pinned& expect : pinned) {
    SCOPED_TRACE(expect.journal ? "journal" : "no journal");
    obs::BufferTraceSink sink;
    ReplayConfig config = FaultBaseConfig(Protocol::kInvalidation);
    config.hierarchical = true;
    config.journaled_recovery = expect.journal;
    config.fault_plan = &plan;
    // Writes while proxy 1 is down fan out through the parent; writes
    // while the server is down reach the leaves only as recovery notices.
    for (trace::DocId doc = 0; doc < 40; ++doc) {
      config.explicit_modifications.push_back({35 * kMinute, doc});
      config.explicit_modifications.push_back({45 * kMinute, doc});
    }
    config.trace_sink = &sink;
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(obs::DigestJsonl(sink.Text()), expect.trace_digest);
    EXPECT_EQ(metrics.invsrv_sent, expect.invsrv_sent);
    EXPECT_EQ(metrics.recovery_invalidations_sent,
              expect.recovery_invalidations_sent);
    EXPECT_EQ(metrics.hierarchy_forwards, expect.hierarchy_forwards);
    EXPECT_EQ(metrics.invalidations_delivered, expect.invalidations_delivered);
    EXPECT_EQ(metrics.invalidations_refused, expect.invalidations_refused);
    EXPECT_EQ(metrics.write_completions, expect.write_completions);
    EXPECT_EQ(metrics.message_bytes, expect.message_bytes);
    EXPECT_EQ(metrics.strong_violations, 0u);
  }
}

// The exact-union claim at the core layer: after a crash, per-shard journal
// rebuild restores the same (url, site, lease) entry set the single-journal
// accelerator restores — not a subset, not a superset.
TEST(FaultScenarios, PerShardJournalRebuildRestoresExactUnionOfSiteLists) {
  http::DocumentStore docs;
  std::vector<std::string> urls;
  for (int i = 0; i < 48; ++i) {
    urls.push_back("/union/doc-" + std::to_string(i));
    docs.Add(urls.back(), 2048, 0);
  }

  const auto drive = [&docs, &urls](std::uint32_t shards) {
    core::LeaseConfig lease;
    lease.mode = core::LeaseMode::kFixed;
    lease.duration = kHour;
    core::ShardedAccelerator accel(docs, lease, shards);
    accel.EnableJournal(true);
    for (std::size_t i = 0; i < urls.size(); ++i) {
      for (int s = 0; s < 1 + static_cast<int>(i % 3); ++s) {
        net::Request request;
        request.url = urls[i];
        request.client_id = "site-" + std::to_string(s);
        request.type = net::MessageType::kGet;
        accel.HandleRequest(request, kMinute);
      }
    }
    // A few writes before the crash leave invalidation records (and version
    // bumps) in the journal, so the rebuild is not a pure registration log.
    for (std::size_t i = 0; i < urls.size(); i += 6) {
      docs.Touch(urls[i], 2 * kMinute);
      accel.HandleNotify(net::Notify{urls[i]}, 2 * kMinute);
    }
    accel.Crash();
    const core::ShardedAccelerator::RecoveryOutcome outcome =
        accel.RecoverFromJournal(3 * kMinute);
    EXPECT_FALSE(outcome.journal_damaged) << shards << " shards";
    return accel.SnapshotEntries();
  };

  const std::vector<core::InvalidationTable::Snapshot> baseline = drive(1);
  ASSERT_FALSE(baseline.empty());
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    const std::vector<core::InvalidationTable::Snapshot> sharded =
        drive(shards);
    ASSERT_EQ(sharded.size(), baseline.size()) << shards << " shards";
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(sharded[i].url, baseline[i].url) << shards << " shards";
      EXPECT_EQ(sharded[i].site, baseline[i].site) << shards << " shards";
      EXPECT_EQ(sharded[i].lease_until, baseline[i].lease_until)
          << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace webcc::replay
