// Origin web server logic and service costs.
//
// OriginReply is the pure protocol half of the pseudo-server (the NCSA
// HTTPD of the paper's testbed): it answers GET with a 200 and
// If-Modified-Since with a 200 or 304 against the document store. Leases and
// invalidation live in the accelerator (core/sharded_accelerator.h), which
// wraps these replies. ServerCosts quantifies what each operation charges to
// the server's CPU and disk stations during a replay.
#pragma once

#include <cstdint>
#include <optional>

#include "http/document_store.h"
#include "net/message.h"
#include "util/time.h"

namespace webcc::http {

// Service costs at the pseudo-server. Defaults are calibrated so the replay
// lands in the paper's utilization band (roughly 26-42% server CPU and a few
// disk ops per second); like the paper's iostat figures, absolute values
// only matter for comparison across protocols.
struct ServerCosts {
  // CPU to parse + serve a request that returns a body (200).
  Time request_cpu_200 = 150 * kMillisecond;
  // CPU for a validation that returns 304 (no body work).
  Time request_cpu_304 = 75 * kMillisecond;
  // CPU to process a check-in notification from the modifier.
  Time notify_cpu = 20 * kMillisecond;
  // CPU to build + push one INVALIDATE message onto a TCP connection. The
  // paper's accelerator pays this serially for every site in the list.
  Time invalidation_send_cpu = 25 * kMillisecond;
  // Disk service time per operation (the access log write every request, and
  // the file read behind each 200).
  Time disk_op = 8 * kMillisecond;
  // CPU per piggybacked item processed (PCV bulk validation / PSI change
  // list assembly).
  Time piggyback_item_cpu = 2 * kMillisecond;
};

// Answers a GET or IMS from `store`. Returns std::nullopt when the URL does
// not exist (the replay's traces only reference known documents, but live
// mode can see arbitrary URLs). The reply's lease_until is kNoLease; the
// accelerator stamps leases.
std::optional<net::Reply> OriginReply(const DocumentStore& store,
                                      const net::Request& request);

}  // namespace webcc::http
