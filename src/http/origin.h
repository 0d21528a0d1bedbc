// Origin web server logic.
//
// OriginReply is the pure protocol half of the pseudo-server (the NCSA
// HTTPD of the paper's testbed): it answers GET with a 200 and
// If-Modified-Since with a 200 or 304 against the document store. Leases and
// invalidation live in the accelerator (core/sharded_accelerator.h), which
// wraps these replies. The replay engine charges their service costs
// (replay/engine_impl.h).
#pragma once

#include <optional>

#include "http/document_store.h"
#include "net/message.h"

namespace webcc::http {

// Answers a GET or IMS from `store`. Returns std::nullopt when the URL does
// not exist (the replay's traces only reference known documents, but live
// mode can see arbitrary URLs). The reply's lease_until is kNoLease; the
// accelerator stamps leases.
std::optional<net::Reply> OriginReply(const DocumentStore& store,
                                      const net::Request& request);

}  // namespace webcc::http
