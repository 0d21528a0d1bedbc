// The steps a Harvest proxy and the accelerator-fronted server run on each
// request and each write, written once for both stacks.
//
// The consistency kernel (core/consistency) decides; these functions carry
// the decisions out against a proxy cache or the server's state. The replay
// engine adds simulated time, costs, counters and events around them, the
// live stack sockets and locks, so a step cannot run one way in simulation
// and another in deployment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/consistency/policy.h"
#include "core/piggyback.h"
#include "core/sharded_accelerator.h"
#include "http/document_store.h"
#include "http/proxy_cache.h"
#include "net/message.h"
#include "util/time.h"

namespace webcc::core {

// --- proxy side --------------------------------------------------------------

struct FetchStart {
  // The cached copy OnHit lets the proxy serve, or nullptr. Valid until the
  // cache is next mutated.
  http::CacheEntry* hit = nullptr;
  // Otherwise the GET, or the IMS for the cached copy, with the PCV batch
  // on pcv_queries.
  net::Request request;
  bool lease_renewal = false;  // the IMS exists only because a lease lapsed
};

// Looks up `owner`'s copy of `url` and asks OnHit whether to serve it. A
// request under PCV takes up to kMaxPcvBatch of the cache's other
// TTL-expired entries along, consuming their TTL-heap records until the
// reply's ApplyPiggyback re-arms or drops each.
FetchStart StartFetch(http::ProxyCache& cache,
                      const consistency::ConsistencyPolicy& policy,
                      const std::string& url, const std::string& owner,
                      Time now);

struct PiggybackOutcome {
  std::uint64_t pcv_invalidated = 0;  // copies dropped as stale
  std::uint64_t psi_erased = 0;       // copies purged by PSI notices
};

// Runs before the reply itself, so a just-fetched body is inserted after
// any purge of its URL: drops every copy the reply names stale, re-arms the
// rest of `batch` (the request's PCV queries) through OnPcvValid, and
// purges every copy of each URL in the PSI notices.
PiggybackOutcome ApplyPiggyback(http::ProxyCache& cache,
                                const consistency::ConsistencyPolicy& policy,
                                const std::vector<net::PcvQuery>& batch,
                                const net::Reply& reply, Time now);

// A 200: caches the body as `owner`'s copy under OnMissReply's TTL and
// lease.
void CacheTransfer(http::ProxyCache& cache,
                   const consistency::ConsistencyPolicy& policy,
                   const net::Reply& reply, const std::string& owner,
                   Time now);

// A 304: refreshes `owner`'s copy as OnValidateReply decides. Returns the
// copy, or nullptr when it left the cache while the IMS was out.
http::CacheEntry* Revalidate(http::ProxyCache& cache,
                             const consistency::ConsistencyPolicy& policy,
                             const net::Reply& reply, const std::string& owner,
                             Time now);

// --- server side -------------------------------------------------------------

// The document store, the accelerator that fronts it under invalidation
// (the other protocols talk to the plain origin), and the PSI modification
// log. Not copyable: the accelerator holds the store's address.
class ServerSite {
 public:
  ServerSite(const consistency::Traits& traits, LeaseConfig lease,
             std::uint32_t shards, std::string server_name);
  ServerSite(const ServerSite&) = delete;
  ServerSite& operator=(const ServerSite&) = delete;

  // Answers a GET or IMS through the accelerator or the origin, as the
  // traits route it; std::nullopt for an unknown document. The reply names
  // the stale copies of the request's PCV batch and, under PSI, up to
  // kMaxPsiNotices documents modified since `*psi_cursor`, the requesting
  // proxy's contact cursor, which advances. `psi_cursor` may be null except
  // under PSI.
  std::optional<net::Reply> Serve(const net::Request& request, Time now,
                                  Time* psi_cursor);

  // A write's file-system touch plus its PSI record; false for an unknown
  // document.
  bool Touch(const std::string& url, Time at);

  http::DocumentStore& docs() { return docs_; }
  ShardedAccelerator& accelerator() { return accel_; }

 private:
  consistency::Traits traits_;
  http::DocumentStore docs_;
  ShardedAccelerator accel_;
  ModificationLog mod_log_;
};

}  // namespace webcc::core
