// Event taxonomy for webcc's structured tracing layer.
//
// Every observable protocol action — a request served, an IMS sent, a lease
// granted, an INVALIDATE moving through its lifecycle — is one TraceEvent,
// stamped with the simulator (or live wall) clock and, where meaningful,
// the trace clock. Emitters pass the strings they already hold; the sink
// interns them so the on-disk form carries dense ids (see trace_sink.h).
//
// The taxonomy is designed to reconcile with the paper's tables: each event
// type that mirrors a ReplayMetrics counter is emitted at exactly the site
// that increments the counter, so `count(events of type T) == counter` holds
// for every replay (DESIGN.md lists the identities).
#pragma once

#include <cstdint>
#include <string_view>

#include "util/time.h"

namespace webcc::obs {

enum class EventType : std::uint8_t {
  // --- run framing ---------------------------------------------------------
  kRunBegin,    // label = free-form run description (protocol, trace)
  kRunEnd,      // label = one-line outcome summary

  // --- client request path -------------------------------------------------
  kGetSent,         // full GET to the server      == get_requests
  kImsSent,         // If-Modified-Since sent      == ims_requests
                    //   detail: 1 when the IMS exists only because a lease
                    //   lapsed (lease_renewal_ims)
  kRequestServed,   // a client request completed
                    //   detail: ServeKind below
  kRequestTimeout,  // closed loop gave up waiting == request_timeouts
  kReply200,        // a 200 reply was produced    == replies_200
  kReply304,        // a 304 reply was produced    == replies_304
  kStaleHit,        // an outdated version was served == stale_serves
                    //   detail: StaleKind below

  // --- lease lifecycle -----------------------------------------------------
  kLeaseGrant,   // accelerator granted a lease; detail = absolute expiry
  kLeaseExpiry,  // a site-list entry's lease found expired at prune time;
                 //   detail = the expiry that lapsed

  // --- invalidation lifecycle ----------------------------------------------
  kInvalidateGenerated,  // accelerator produced one INVALIDATE
                         //   == invalidations_generated
  kInvalidateDelivered,  // the INVALIDATE reached its proxy
  kInvalidateRefused,    // target proxy down: connection refused
  kInvalidateGaveUp,     // live push: every attempt to a stalled proxy
                         //   timed out
  kInvalidateServer,     // server-address INVALIDATE (recovery broadcast)

  // --- cache / infrastructure ----------------------------------------------
  kEviction,       // proxy cache eviction; detail: 1 = expired-first rule,
                   // 2 = oversize rejection
  kModification,   // modifier touched a document == modifications_applied
  kNotify,         // check-in NOTIFY processed   == notifies
  kPartition,      // a link was cut
  kPartitionHeal,  // a link healed

  // --- fault injection / recovery (appended; see src/fault/) ---------------
  kLinkDrop,       // injected message loss on a site pair
  kLinkDelay,      // injected extra latency; detail = added microseconds
  kLinkDup,        // injected duplicate delivery of a datagram
  kNodeCrash,      // a proxy/accelerator/server crashed; site = node name
  kNodeRestart,    // the node came back; site = node name
  kWriteComplete,  // a write's delivery state machine resolved
                   //   detail: WriteCompleteKind below
  kJournalRebuild, // accelerator rebuilt site lists from its journal
                   //   detail: 1 = journal damaged, fell back to broadcast
};

// detail values for kRequestServed.
enum class ServeKind : std::int64_t {
  kLocalHit = 0,   // served from cache, no server contact  == local_hits
  kTransfer = 1,   // 200 body delivered to the client
  kValidated = 2,  // 304 certified the cached copy         == validated_hits
};

// detail values for kStaleHit.
enum class StaleKind : std::int64_t {
  kWeakProtocol = 0,        // TTL-based protocol served stale (expected)
  kInvalidationInFlight = 1,  // write not yet complete: within the contract
  kStrongViolation = 2,       // stale after write completion (must not occur)
};

// detail values for kWriteComplete.
enum class WriteCompleteKind : std::int64_t {
  kAllAcked = 0,       // every targeted site acknowledged the INVALIDATE
  kLeasesExpired = 1,  // stragglers' leases lapsed; write unblocked by bound
  kNoTargets = 2,      // nobody cached the document; trivially complete
};

// Returns the stable wire name ("ims_sent", "lease_grant", ...) used in the
// JSONL `e` field; names never change once released, they are the format.
std::string_view EventTypeName(EventType type);

// Inverse of EventTypeName; returns false for unknown names.
bool ParseEventTypeName(std::string_view name, EventType& out);

// One structured trace event. Emitters fill only the fields the type uses;
// string fields are views valid for the duration of the Emit() call.
struct TraceEvent {
  EventType type = EventType::kRunBegin;
  // Simulator wall clock (replay) or monotonic microseconds (live).
  Time at = 0;
  // Trace-time clock when the event has one; -1 = not applicable.
  Time trace_time = -1;
  // Document URL, when the event concerns one.
  std::string_view url{};
  // Site / client identifier, when the event addresses one.
  std::string_view site{};
  // Type-specific scalar (ServeKind, StaleKind, lease expiry, mod id...).
  std::int64_t detail = 0;
  // Free-form label (run framing events only).
  std::string_view label{};
};

}  // namespace webcc::obs
