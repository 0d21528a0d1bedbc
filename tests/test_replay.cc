// Integration and property tests for the replay engine.
//
// These bind the full system together: the engine's message counts must
// obey the Table 1 identities and match the core/analysis exact simulators
// on single-client sequences; strong protocols must never violate their
// consistency contract, with or without injected failures; and runs must be
// deterministic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis.h"
#include "fault/plan.h"
#include "replay/engine.h"
#include "trace/workload.h"
#include "util/rng.h"

namespace webcc::replay {
namespace {

using core::Protocol;

trace::Trace SmallTrace(std::uint64_t seed = 5, std::uint64_t requests = 1500,
                        std::uint32_t documents = 120,
                        std::uint32_t clients = 60) {
  trace::WorkloadConfig config;
  config.duration = 3 * kHour;
  config.total_requests = requests;
  config.num_documents = documents;
  config.num_clients = clients;
  config.seed = seed;
  return trace::GenerateTrace(config);
}

ReplayConfig BaseConfig(const trace::Trace& trace, Protocol protocol) {
  ReplayConfig config;
  config.protocol = protocol;
  config.trace = &trace;
  config.mean_lifetime = 12 * kHour;  // plenty of modifications
  return config;
}

// --- cross-protocol invariants ---------------------------------------------------

class ProtocolTest : public ::testing::TestWithParam<Protocol> {
 protected:
  static const trace::Trace& Trace() {
    static const trace::Trace trace = SmallTrace();
    return trace;
  }
};

TEST_P(ProtocolTest, EveryRequestResolvesExactlyOnce) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(metrics.requests_issued, Trace().records.size());
  EXPECT_EQ(metrics.requests_skipped, 0u);
  EXPECT_EQ(metrics.request_timeouts, 0u);
  // Each request ends as a local hit, a validated (304) hit, or a transfer.
  EXPECT_EQ(metrics.local_hits + metrics.validated_hits + metrics.replies_200,
            metrics.requests_issued);
  // PCV and PSI reach their piggyback paths on this fixture, so these
  // properties cover those paths too.
  if (GetParam() == Protocol::kPiggybackValidation) {
    EXPECT_GT(metrics.pcv_items_piggybacked, 0u);
  } else if (GetParam() == Protocol::kPiggybackInvalidation) {
    EXPECT_GT(metrics.psi_notices, 0u);
  }
}

TEST_P(ProtocolTest, RepliesMatchRequests) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(metrics.get_requests + metrics.ims_requests,
            metrics.replies_200 + metrics.replies_304);
  // GETs always produce transfers.
  EXPECT_GE(metrics.replies_200, metrics.get_requests);
  // 304s only answer IMS.
  EXPECT_LE(metrics.replies_304, metrics.ims_requests);
}

TEST_P(ProtocolTest, NoStrongViolationsEver) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(metrics.strong_violations, 0u);
}

TEST_P(ProtocolTest, Deterministic) {
  const ReplayMetrics a = RunReplay(BaseConfig(Trace(), GetParam()));
  const ReplayMetrics b = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_TRUE(SameSimulation(a, b));
}

TEST_P(ProtocolTest, ServerLoadAccounted) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_GT(metrics.server_cpu_utilization, 0.0);
  EXPECT_LE(metrics.server_cpu_utilization, 1.0);
  EXPECT_GT(metrics.disk_writes_per_second, 0.0);
  EXPECT_GT(metrics.wall_duration, 0);
}

TEST_P(ProtocolTest, LatencyRecordedPerRequest) {
  const ReplayMetrics metrics = RunReplay(BaseConfig(Trace(), GetParam()));
  EXPECT_EQ(metrics.latency_ms.count(), metrics.requests_issued);
  EXPECT_GT(metrics.latency_ms.min(), 0.0);
}

// A per-layer ceiling on the simulator's queue. Without writes, each
// pseudo-client holds at most its one in-flight hop (the forward, the
// delivery, the server's reply, or the think-time wake-up) plus, while a
// request is at the server, its reply timeout; the lock-step coordinator
// adds a little. A delivered reply cancels its timeout, so dead 10-minute
// timeouts must not pile up in the queue.
TEST_P(ProtocolTest, QueueHoldsOnlyLiveEvents) {
  ReplayConfig config = BaseConfig(Trace(), GetParam());
  config.suppress_generated_modifications = true;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_EQ(metrics.request_timeouts, 0u);
  EXPECT_LE(metrics.sim_peak_queue_depth, 3u * config.num_pseudo_clients);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolTest,
                         ::testing::Values(Protocol::kAdaptiveTtl,
                                           Protocol::kPollEveryTime,
                                           Protocol::kInvalidation,
                                           Protocol::kPiggybackValidation,
                                           Protocol::kPiggybackInvalidation),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           switch (info.param) {
                             case Protocol::kAdaptiveTtl:
                               return "AdaptiveTtl";
                             case Protocol::kPollEveryTime:
                               return "PollEveryTime";
                             case Protocol::kInvalidation:
                               return "Invalidation";
                             case Protocol::kPiggybackValidation:
                               return "PiggybackValidation";
                             case Protocol::kPiggybackInvalidation:
                               return "PiggybackInvalidation";
                           }
                           return "Unknown";
                         });

// --- protocol-specific behaviour -----------------------------------------------------

TEST(ReplayPolling, NeverServesLocally) {
  const trace::Trace trace = SmallTrace();
  const ReplayMetrics metrics =
      RunReplay(BaseConfig(trace, Protocol::kPollEveryTime));
  EXPECT_EQ(metrics.local_hits, 0u);
  EXPECT_EQ(metrics.stale_serves, 0u);
  // Every request goes to the server.
  EXPECT_EQ(metrics.get_requests + metrics.ims_requests,
            metrics.requests_issued);
}

TEST(ReplayInvalidation, NoImsWithoutLeasesOrFailures) {
  const trace::Trace trace = SmallTrace();
  const ReplayMetrics metrics =
      RunReplay(BaseConfig(trace, Protocol::kInvalidation));
  EXPECT_EQ(metrics.ims_requests, 0u);
  EXPECT_EQ(metrics.replies_304, 0u);
  EXPECT_EQ(metrics.stale_serves, metrics.stale_while_invalidation_in_flight);
}

TEST(ReplayInvalidation, InvalidationsDelivered) {
  const trace::Trace trace = SmallTrace();
  const ReplayMetrics metrics =
      RunReplay(BaseConfig(trace, Protocol::kInvalidation));
  EXPECT_GT(metrics.invalidations_sent, 0u);
  EXPECT_EQ(metrics.invalidations_delivered, metrics.invalidations_sent);
  EXPECT_EQ(metrics.invalidations_refused, 0u);
}

TEST(ReplayInvalidation, SerializedSendsInflateWorstCaseLatency) {
  // Few documents shared by many clients give each write a long site list,
  // so the fan-out dominates the worst case the way the big traces'
  // thousand-site lists do.
  const trace::Trace trace = SmallTrace(/*seed=*/6, /*requests=*/3000,
                                        /*documents=*/40, /*clients=*/200);
  ReplayConfig serialized = BaseConfig(trace, Protocol::kInvalidation);
  serialized.mean_lifetime = 6 * kHour;
  ReplayConfig decoupled = serialized;
  decoupled.serialized_invalidation = false;
  const ReplayMetrics with_blocking = RunReplay(serialized);
  const ReplayMetrics without_blocking = RunReplay(decoupled);
  // The paper's prototype artifact: fan-out blocks request handling.
  EXPECT_GT(with_blocking.latency_ms.max(),
            without_blocking.latency_ms.max());
  // Decoupling leaves the traffic itself unchanged.
  EXPECT_EQ(with_blocking.invalidations_sent,
            without_blocking.invalidations_sent);
  EXPECT_EQ(with_blocking.replies_200, without_blocking.replies_200);
}

TEST(ReplayAdaptiveTtl, StaleHitsHappenUnderShortLifetimes) {
  const trace::Trace trace = SmallTrace(/*seed=*/7, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kAdaptiveTtl);
  config.mean_lifetime = 2 * kHour;  // aggressive modification rate
  config.fixed_initial_age = 30 * kDay;  // long TTLs -> stale windows
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.stale_serves, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);  // weak protocol: not checked
}

TEST(ReplayAdaptiveTtl, ValidationsProduce304s) {
  const trace::Trace trace = SmallTrace(/*seed=*/8, /*requests=*/2500);
  ReplayConfig config = BaseConfig(trace, Protocol::kAdaptiveTtl);
  config.fixed_initial_age = kHour;  // young docs: short TTLs, many misses
  config.ttl.min_ttl = kMinute;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.ims_requests, 0u);
  EXPECT_EQ(metrics.validated_hits, metrics.replies_304);
}

TEST(ReplayPollingVsInvalidation, PollingSendsMoreMessages) {
  const trace::Trace trace = SmallTrace();
  const ReplayMetrics polling =
      RunReplay(BaseConfig(trace, Protocol::kPollEveryTime));
  const ReplayMetrics invalidation =
      RunReplay(BaseConfig(trace, Protocol::kInvalidation));
  EXPECT_GT(polling.total_messages(), invalidation.total_messages());
  // ...but similar bytes (transfers dominate), within 5%.
  EXPECT_NEAR(static_cast<double>(polling.message_bytes),
              static_cast<double>(invalidation.message_bytes),
              0.05 * static_cast<double>(invalidation.message_bytes));
}

TEST(ReplayInvalidation, HighModificationRateStillNoViolations) {
  // Minute-scale lifetimes put many modifications inside every lock-step
  // interval, exercising the touch -> notify -> fan-out -> delivery window
  // under maximal interleaving with client requests.
  const trace::Trace trace = SmallTrace(/*seed=*/21, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.mean_lifetime = 10 * kMinute;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.modifications_applied, 1000u);
  EXPECT_GT(metrics.invalidations_sent, 100u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_EQ(metrics.stale_serves, metrics.stale_while_invalidation_in_flight);
}

TEST(ReplayInvalidation, DecoupledModeAlsoViolationFree) {
  const trace::Trace trace = SmallTrace(/*seed=*/22, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.mean_lifetime = 20 * kMinute;
  config.serialized_invalidation = false;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_EQ(metrics.invalidations_delivered, metrics.invalidations_sent);
}

TEST(ReplayNetwork, WanProfileRaisesLatencyNotCounts) {
  const trace::Trace trace = SmallTrace(/*seed=*/23);
  ReplayConfig lan = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig wan = lan;
  wan.network = sim::NetworkConfig::Wan();
  const ReplayMetrics lan_run = RunReplay(lan);
  const ReplayMetrics wan_run = RunReplay(wan);
  EXPECT_GT(wan_run.latency_ms.mean(), lan_run.latency_ms.mean());
  // Same-interval wall-order races shift a handful of messages (the
  // paper's lock-step testbed behaves identically); counts agree to <1%.
  EXPECT_NEAR(static_cast<double>(wan_run.total_messages()),
              static_cast<double>(lan_run.total_messages()),
              0.01 * static_cast<double>(lan_run.total_messages()));
  EXPECT_EQ(wan_run.strong_violations, 0u);
}

TEST(ReplayClients, PseudoClientCountDoesNotChangeTraffic) {
  // The paper's 4-pseudo-client split is an artifact of the testbed; the
  // message counts must be invariant to it (caches are per real client).
  const trace::Trace trace = SmallTrace(/*seed=*/24);
  ReplayConfig four = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig eight = four;
  eight.num_pseudo_clients = 8;
  const ReplayMetrics a = RunReplay(four);
  const ReplayMetrics b = RunReplay(eight);
  // Identical up to same-interval wall-order races (<1%).
  EXPECT_NEAR(static_cast<double>(a.replies_200),
              static_cast<double>(b.replies_200),
              0.01 * static_cast<double>(a.replies_200));
  EXPECT_NEAR(static_cast<double>(a.invalidations_sent),
              static_cast<double>(b.invalidations_sent),
              1.0 + 0.02 * static_cast<double>(a.invalidations_sent));
  EXPECT_EQ(a.strong_violations + b.strong_violations, 0u);
}

TEST(ReplaySharedProxy, SharingRaisesHitsAndShrinksState) {
  const trace::Trace trace = SmallTrace(/*seed=*/25, /*requests=*/4000);
  ReplayConfig per_client = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig shared = per_client;
  shared.shared_proxy_cache = true;
  const ReplayMetrics separate = RunReplay(per_client);
  const ReplayMetrics merged = RunReplay(shared);
  EXPECT_GT(merged.cache_hits(), separate.cache_hits());
  EXPECT_LT(merged.replies_200, separate.replies_200);
  EXPECT_LT(merged.sitelist_entries, separate.sitelist_entries);
  EXPECT_EQ(merged.strong_violations, 0u);
  // One site per proxy: lists can never exceed the proxy count.
  EXPECT_LE(merged.sitelist_max_len_end, 4u);
}

TEST(ReplaySharedProxy, AllProtocolsStayConsistent) {
  const trace::Trace trace = SmallTrace(/*seed=*/26);
  for (const Protocol protocol :
       {Protocol::kAdaptiveTtl, Protocol::kPollEveryTime,
        Protocol::kInvalidation}) {
    ReplayConfig config = BaseConfig(trace, protocol);
    config.shared_proxy_cache = true;
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(metrics.strong_violations, 0u);
    EXPECT_EQ(metrics.local_hits + metrics.validated_hits +
                  metrics.replies_200,
              metrics.requests_issued);
  }
}

// --- hierarchy (Worrell configuration) -------------------------------------------------

TEST(ReplayHierarchy, RequestsResolveAndConsistencyHolds) {
  const trace::Trace trace = SmallTrace(/*seed=*/27, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.hierarchical = true;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_EQ(metrics.local_hits + metrics.validated_hits + metrics.replies_200,
            metrics.requests_issued);
  EXPECT_EQ(metrics.request_timeouts, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_GT(metrics.parent_hits, 0u);
  EXPECT_GT(metrics.parent_fetches, 0u);
}

TEST(ReplayHierarchy, ServerInvalidatesOnlyTheParent) {
  const trace::Trace trace = SmallTrace(/*seed=*/28, /*requests=*/4000);
  ReplayConfig flat = BaseConfig(trace, Protocol::kInvalidation);
  flat.mean_lifetime = 4 * kHour;
  ReplayConfig hier = flat;
  hier.hierarchical = true;
  const ReplayMetrics flat_run = RunReplay(flat);
  const ReplayMetrics hier_run = RunReplay(hier);
  // At most one server-sent invalidation per modification.
  EXPECT_LE(hier_run.invalidations_sent, hier_run.modifications_applied);
  EXPECT_LT(hier_run.invalidations_sent, flat_run.invalidations_sent);
  // The parent absorbs cross-client fetches: far fewer server transfers.
  EXPECT_LT(hier_run.parent_fetches, flat_run.replies_200);
  EXPECT_LT(hier_run.server_cpu_utilization, flat_run.server_cpu_utilization);
  // Forwards reach the interested leaves only.
  EXPECT_LE(hier_run.hierarchy_forwards,
            hier_run.invalidations_sent * 4);
  EXPECT_EQ(hier_run.strong_violations, 0u);
}

TEST(ReplayHierarchy, DeterministicAndStaleOnlyInFlight) {
  const trace::Trace trace = SmallTrace(/*seed=*/29, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.hierarchical = true;
  config.mean_lifetime = 2 * kHour;  // heavy modification traffic
  const ReplayMetrics a = RunReplay(config);
  const ReplayMetrics b = RunReplay(config);
  EXPECT_TRUE(SameSimulation(a, b));
  EXPECT_EQ(a.strong_violations, 0u);
  EXPECT_EQ(a.stale_serves, a.stale_while_invalidation_in_flight);
}

TEST(ReplayHierarchy, ParentServesOnlyUnderItsLease) {
  // Once the parent's lease lapses the server stops tracking it, so a later
  // write completes without reaching it. The parent must then revalidate
  // rather than serve its copy, and a copy it serves carries its lease down
  // to the leaf.
  const trace::Trace trace = SmallTrace(/*seed=*/29, /*requests=*/3000);
  for (const core::LeaseMode mode :
       {core::LeaseMode::kFixed, core::LeaseMode::kTwoTier}) {
    SCOPED_TRACE(core::ToString(mode));
    ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
    config.hierarchical = true;
    config.mean_lifetime = 2 * kHour;
    config.lease.mode = mode;
    config.lease.duration = 30 * kMinute;
    config.lease.short_duration = 0;
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(metrics.strong_violations, 0u);
    EXPECT_EQ(metrics.stale_serves, metrics.stale_while_invalidation_in_flight);
    EXPECT_GT(metrics.parent_hits, 0u);
  }
}

TEST(ReplayHierarchy, LeafRevalidatesAgainstTheParentsValidCopy) {
  // One client reads /doc twice, and its leaf proxy crashes in between: the
  // restart marks the leaf's copy questionable, so the second read is an
  // IMS. Nothing was written and leases are off, so the parent's copy is
  // still valid and the parent answers the IMS itself with a 304.
  trace::Trace trace;
  trace.name = "revalidate";
  trace.duration = kHour;
  trace.documents = {{"/doc", 4096}};
  trace.clients = {"c0"};
  trace.records = {trace::TraceRecord{5 * kMinute, 0, 0},
                   trace::TraceRecord{35 * kMinute, 0, 0}};
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.hierarchical = true;
  config.suppress_generated_modifications = true;
  const ReplayMetrics uncrashed = RunReplay(config);
  EXPECT_EQ(uncrashed.local_hits, 1u);
  EXPECT_EQ(uncrashed.parent_fetches, 1u);

  fault::FaultPlan plan;
  plan.events.push_back({.at = 15 * kMinute,
                         .kind = fault::FaultKind::kProxyCrash,
                         .target = 0,
                         .duration = 10 * kMinute});
  config.fault_plan = &plan;
  const ReplayMetrics crashed = RunReplay(config);
  EXPECT_EQ(crashed.requests_skipped, 0u);
  EXPECT_EQ(crashed.ims_requests, 1u);
  EXPECT_EQ(crashed.validated_hits, 1u);
  EXPECT_EQ(crashed.parent_hits, uncrashed.parent_hits + 1);
  EXPECT_EQ(crashed.parent_fetches, uncrashed.parent_fetches);
}

// --- conformance with the analytic model ----------------------------------------------

// Builds a single-client single-document trace plus explicit modification
// schedule from an "rrmmr" sequence, spacing events two lock-step intervals
// apart so replay ordering matches sequence ordering exactly.
struct SequenceFixture {
  trace::Trace trace;
  std::vector<trace::ModEvent> modifications;
};

SequenceFixture MakeSequenceFixture(const std::string& sequence) {
  constexpr Time kSpacing = 15 * kMinute;
  SequenceFixture fixture;
  fixture.trace.name = "seq";
  fixture.trace.duration =
      kSpacing * static_cast<Time>(sequence.size() + 1);
  fixture.trace.documents = {{"/doc", 4096}};
  fixture.trace.clients = {"c0"};
  Time at = kSpacing;
  for (char c : sequence) {
    if (c == 'r') {
      fixture.trace.records.push_back(trace::TraceRecord{at, 0, 0});
    } else {
      fixture.modifications.push_back(trace::ModEvent{at, 0});
    }
    at += kSpacing;
  }
  return fixture;
}

class SequenceConformanceTest : public ::testing::TestWithParam<int> {};

TEST_P(SequenceConformanceTest, ReplayMatchesExactSimulators) {
  util::Rng rng(GetParam());
  std::string sequence;
  for (int i = 0; i < 40; ++i) sequence += rng.NextBool(0.7) ? 'r' : 'm';

  const SequenceFixture fixture = MakeSequenceFixture(sequence);
  const auto events = core::ParseSequence(sequence, 15 * kMinute);

  // Polling.
  {
    ReplayConfig config = BaseConfig(fixture.trace, Protocol::kPollEveryTime);
    config.explicit_modifications = fixture.modifications;
    const ReplayMetrics metrics = RunReplay(config);
    const core::MessageCounts expected =
        core::SimulatePollingSequence(events);
    EXPECT_EQ(metrics.get_requests, expected.gets) << sequence;
    EXPECT_EQ(metrics.ims_requests, expected.ims) << sequence;
    EXPECT_EQ(metrics.replies_200, expected.replies_200) << sequence;
    EXPECT_EQ(metrics.replies_304, expected.replies_304) << sequence;
  }

  // Invalidation.
  {
    ReplayConfig config = BaseConfig(fixture.trace, Protocol::kInvalidation);
    config.explicit_modifications = fixture.modifications;
    const ReplayMetrics metrics = RunReplay(config);
    const core::MessageCounts expected =
        core::SimulateInvalidationSequence(events);
    EXPECT_EQ(metrics.get_requests, expected.gets) << sequence;
    EXPECT_EQ(metrics.replies_200, expected.replies_200) << sequence;
    EXPECT_EQ(metrics.invalidations_sent, expected.invalidations) << sequence;
    EXPECT_EQ(metrics.strong_violations, 0u) << sequence;
  }

  // Adaptive TTL, with the initial age pinned so both sides agree.
  {
    ReplayConfig config = BaseConfig(fixture.trace, Protocol::kAdaptiveTtl);
    config.explicit_modifications = fixture.modifications;
    config.fixed_initial_age = 10 * kDay;
    const ReplayMetrics metrics = RunReplay(config);
    const core::MessageCounts expected = core::SimulateAdaptiveTtlSequence(
        events, config.ttl, -10 * kDay);
    EXPECT_EQ(metrics.get_requests, expected.gets) << sequence;
    EXPECT_EQ(metrics.ims_requests, expected.ims) << sequence;
    EXPECT_EQ(metrics.replies_200, expected.replies_200) << sequence;
    EXPECT_EQ(metrics.replies_304, expected.replies_304) << sequence;
    EXPECT_EQ(metrics.stale_serves, expected.stale_hits) << sequence;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceConformanceTest,
                         ::testing::Range(100, 115));

// --- leases ------------------------------------------------------------------------------

TEST(ReplayLease, FixedLeaseBoundsSiteLists) {
  const trace::Trace trace = SmallTrace(/*seed=*/9, /*requests=*/3000);
  ReplayConfig unbounded = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig leased = unbounded;
  leased.lease.mode = core::LeaseMode::kFixed;
  leased.lease.duration = 30 * kMinute;
  const ReplayMetrics without = RunReplay(unbounded);
  const ReplayMetrics with = RunReplay(leased);
  EXPECT_LT(with.sitelist_entries, without.sitelist_entries);
  EXPECT_LT(with.sitelist_storage_bytes, without.sitelist_storage_bytes);
  // Expired leaseholders revalidate instead of trusting their copy.
  EXPECT_GT(with.lease_renewal_ims, 0u);
  EXPECT_EQ(with.strong_violations, 0u);
}

TEST(ReplayLease, TwoTierFiltersOneTimeViewers) {
  const trace::Trace trace = SmallTrace(/*seed=*/10, /*requests=*/3000);
  ReplayConfig simple = BaseConfig(trace, Protocol::kInvalidation);
  ReplayConfig two_tier = simple;
  two_tier.lease.mode = core::LeaseMode::kTwoTier;
  two_tier.lease.duration = trace.duration;  // generous regular lease
  two_tier.lease.short_duration = 0;
  const ReplayMetrics without = RunReplay(simple);
  const ReplayMetrics with = RunReplay(two_tier);
  // Only repeat viewers occupy the table; one-time GETs are filtered.
  EXPECT_LT(with.sitelist_entries, without.sitelist_entries);
  // The cost: one extra IMS per repeat viewer's second request.
  EXPECT_GT(with.ims_requests, 0u);
  EXPECT_EQ(with.strong_violations, 0u);
  // Invalidation traffic can only shrink.
  EXPECT_LE(with.invalidations_sent, without.invalidations_sent);
}

// --- failure injection ---------------------------------------------------------------------

// A one-event fault plan: `kind` hits `target` over [at, until).
fault::FaultPlan OneFault(fault::FaultKind kind, int target, Time at,
                          Time until) {
  fault::FaultEvent event;
  event.at = at;
  event.kind = kind;
  event.target = target;
  event.duration = until - at;
  fault::FaultPlan plan;
  plan.events.push_back(event);
  return plan;
}

TEST(ReplayFailure, ProxyCrashSkipsAndRecoversQuestionable) {
  const trace::Trace trace = SmallTrace(/*seed=*/11, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  const fault::FaultPlan plan = OneFault(fault::FaultKind::kProxyCrash, 0,
                                         trace.duration / 4,
                                         trace.duration / 2);
  config.fault_plan = &plan;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.requests_skipped, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  // The recovered proxy revalidates its questionable entries.
  EXPECT_GT(metrics.ims_requests, 0u);
}

TEST(ReplayFailure, InvalidationToDeadProxyRefusedNotRetried) {
  const trace::Trace trace = SmallTrace(/*seed=*/12, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.mean_lifetime = 3 * kHour;
  const fault::FaultPlan plan = OneFault(fault::FaultKind::kProxyCrash, 1,
                                         trace.duration / 4,
                                         3 * trace.duration / 4);
  config.fault_plan = &plan;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.invalidations_refused, 0u);
  EXPECT_EQ(metrics.invalidations_delivered + metrics.invalidations_refused,
            metrics.invalidations_sent);
  EXPECT_EQ(metrics.strong_violations, 0u);
}

TEST(ReplayFailure, ServerCrashCausesTimeoutsRecoverySendsInvsrv) {
  const trace::Trace trace = SmallTrace(/*seed=*/13, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.request_timeout = 5 * kSecond;
  // The paper's blanket recovery broadcast (journal-less).
  config.journaled_recovery = false;
  const fault::FaultPlan plan = OneFault(fault::FaultKind::kServerCrash, -1,
                                         trace.duration / 4,
                                         trace.duration / 2);
  config.fault_plan = &plan;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.request_timeouts, 0u);
  EXPECT_GT(metrics.invsrv_sent, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
}

TEST(ReplayFailure, JournaledRecoverySendsTargetedInvalidations) {
  const trace::Trace trace = SmallTrace(/*seed=*/13, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.request_timeout = 5 * kSecond;
  const fault::FaultPlan plan = OneFault(fault::FaultKind::kServerCrash, -1,
                                         trace.duration / 4,
                                         trace.duration / 2);
  config.fault_plan = &plan;
  const ReplayMetrics metrics = RunReplay(config);
  // The write-ahead journal replaces the blanket INVSRV broadcast with
  // targeted invalidations for documents modified during the downtime.
  EXPECT_EQ(metrics.invsrv_sent, 0u);
  EXPECT_EQ(metrics.journal_rebuilds, 1u);
  EXPECT_EQ(metrics.journal_damaged_recoveries, 0u);
  EXPECT_GT(metrics.recovery_invalidations_sent, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
}

TEST(ReplayFailure, JournaledAndBroadcastRecoveryBothUpholdStrong) {
  // Identical scenario either way: neither recovery flavour may violate
  // strong consistency, and both must complete every write eventually.
  for (const bool journaled : {false, true}) {
    const trace::Trace trace = SmallTrace(/*seed=*/21, /*requests=*/2500);
    ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
    config.request_timeout = 5 * kSecond;
    config.journaled_recovery = journaled;
    const fault::FaultPlan plan =
        OneFault(fault::FaultKind::kServerCrash, -1, trace.duration / 3,
                 trace.duration / 3 + 30 * kMinute);
    config.fault_plan = &plan;
    const ReplayMetrics metrics = RunReplay(config);
    EXPECT_EQ(metrics.strong_violations, 0u) << "journaled=" << journaled;
  }
}

TEST(ReplayFailure, PartitionRetriesDeliverAfterHeal) {
  const trace::Trace trace = SmallTrace(/*seed=*/14, /*requests=*/3000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.mean_lifetime = 3 * kHour;
  config.request_timeout = 5 * kSecond;
  const fault::FaultPlan plan =
      OneFault(fault::FaultKind::kPartition, 0, trace.duration / 4,
               trace.duration / 4 + 20 * kMinute);
  config.fault_plan = &plan;
  const ReplayMetrics metrics = RunReplay(config);
  // Everything eventually lands; stale serves during the partition are
  // in-contract (the write has not completed).
  EXPECT_EQ(metrics.invalidations_delivered + metrics.invalidations_refused,
            metrics.invalidations_sent);
  EXPECT_EQ(metrics.strong_violations, 0u);
}

// --- cache pressure ---------------------------------------------------------------------------

TEST(ReplayCache, PressureCausesEvictionsButNoViolations) {
  const trace::Trace trace = SmallTrace(/*seed=*/15, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kInvalidation);
  config.proxy_cache_bytes = 64 * 1024;  // severe pressure
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.proxy_evictions, 0u);
  EXPECT_EQ(metrics.strong_violations, 0u);
  EXPECT_EQ(metrics.local_hits + metrics.validated_hits + metrics.replies_200,
            metrics.requests_issued);
}

TEST(ReplayCache, ExpiredFirstEvictsUnderTtl) {
  const trace::Trace trace = SmallTrace(/*seed=*/16, /*requests=*/4000);
  ReplayConfig config = BaseConfig(trace, Protocol::kAdaptiveTtl);
  config.proxy_cache_bytes = 256 * 1024;
  config.fixed_initial_age = 2 * kHour;  // short TTLs expire during the run
  config.ttl.min_ttl = kMinute;
  const ReplayMetrics metrics = RunReplay(config);
  EXPECT_GT(metrics.proxy_expired_evictions, 0u);
}

// --- the determinism check ------------------------------------------------------------------

TEST(SameSimulation, IgnoresHostSecondsAndNothingElse) {
  ReplayMetrics base;
  base.requests_issued = 3;
  base.latency_ms.Record(1.0);
  base.latency_ms.Record(2.5);
  const auto same_after = [&base](auto change) {
    ReplayMetrics changed = base;
    change(changed);
    return SameSimulation(base, changed);
  };
  EXPECT_TRUE(same_after([](ReplayMetrics& m) { m.host_seconds = 4.0; }));
  EXPECT_FALSE(same_after([](ReplayMetrics& m) { ++m.sim_peak_queue_depth; }));
  EXPECT_FALSE(
      same_after([](ReplayMetrics& m) { m.server_cpu_utilization = 0.5; }));
  EXPECT_FALSE(same_after([](ReplayMetrics& m) { m.wall_duration = 1; }));
  // One sample of one histogram differs: 2.5 becomes 2.0.
  EXPECT_FALSE(same_after([](ReplayMetrics& m) {
    m.latency_ms = {};
    m.latency_ms.Record(1.0);
    m.latency_ms.Record(2.0);
  }));
}

}  // namespace
}  // namespace webcc::replay
