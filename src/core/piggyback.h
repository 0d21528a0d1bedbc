// Piggyback consistency mechanisms: PCV and PSI.
//
// The successor designs to this paper's comparison (Krishnamurthy & Wills):
// instead of dedicated validation or invalidation traffic, freshness
// information rides on messages the proxy and server exchange anyway.
//
//  * PCV (piggyback cache validation): when the proxy contacts the server
//    for a miss, it piggybacks a batch of its TTL-expired cached entries;
//    the server validates them in bulk and the reply marks which are
//    invalid. Saves the If-Modified-Since requests those entries would
//    otherwise cost.
//
//  * PSI (piggyback server invalidation): the server remembers each
//    proxy's last contact time and attaches to every reply the list of
//    documents modified since; the proxy purges those copies. Gives
//    invalidation-like freshness at zero extra messages, with staleness
//    bounded by the proxy's contact frequency rather than by TTL guesses.
//
// Both remain weak-consistency schemes (a fully idle proxy learns nothing),
// which is exactly the regime the replay experiments quantify against the
// paper's three approaches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "http/document_store.h"
#include "net/message.h"
#include "util/time.h"

namespace webcc::core {

// --- PCV ---------------------------------------------------------------------

// Most TTL-expired entries piggybacked on one request.
inline constexpr std::size_t kMaxPcvBatch = 50;

// Bulk validation against the document store (the server side of PCV): the
// queried copies whose document changed since their last_modified, or was
// deleted at the origin, in query order. Fresh copies are implied.
std::vector<net::PcvStale> ValidatePiggyback(
    const http::DocumentStore& store,
    const std::vector<net::PcvQuery>& queries);

// Wire-size overhead the piggyback adds to a request / to a reply.
std::uint64_t PcvRequestExtraBytes(const std::vector<net::PcvQuery>& queries);
std::uint64_t PcvReplyExtraBytes(const std::vector<net::PcvStale>& stale);

// --- PSI ---------------------------------------------------------------------

// Most modified-document notices attached to one reply; when the backlog is
// larger, the contact cursor only advances past what was sent.
inline constexpr std::size_t kMaxPsiNotices = 100;

// Append-only log of document modifications in trace-time order; the server
// side of PSI queries it per proxy contact.
class ModificationLog {
 public:
  // `at` must be >= every previously recorded time.
  void Record(Time at, std::string url);

  struct Window {
    std::vector<std::string> urls;  // deduplicated, in first-touch order
    Time advanced_to = 0;           // new contact cursor for the proxy
  };

  // Modifications in (since, now], capped at `max_urls` distinct documents.
  // When the cap truncates, advanced_to stops at the last included
  // modification so nothing is skipped on the next contact.
  Window CollectSince(Time since, Time now, std::size_t max_urls) const;

 private:
  std::vector<std::pair<Time, std::string>> entries_;
};

std::uint64_t PsiReplyExtraBytes(const std::vector<std::string>& urls);

}  // namespace webcc::core
