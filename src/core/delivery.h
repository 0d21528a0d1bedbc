// Delivery-state machine for one write's invalidation fan-out.
//
// The paper's write-completion rule (Sections 4 and 6): a write is complete
// only when every site that might hold the old copy has either acknowledged
// its INVALIDATE or stopped mattering — its lease expired (Section 6's
// bound on how long a partition can block a write) or it is known dead
// (connection refused / retry budget exhausted; safe because a recovering
// proxy re-enters with every entry marked unverified).
//
// WriteDelivery tracks those targets for one modification. It is pure
// bookkeeping — no I/O, no clocks of its own — driven by the replay engine
// from its event loop, and the fault harness can assert on it directly.
// The live stack does not use it: a live push gets no ack, so the live
// server counts pushes and refusals instead. Targets are kept in a sorted
// map so iteration order (and thus trace output) is deterministic.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "net/message.h"
#include "util/time.h"

namespace webcc::core {

class WriteDelivery {
 public:
  enum class Completion {
    kPending,        // targets still outstanding
    kAllAcked,       // every target acknowledged
    kLeasesExpired,  // >=1 straggler resolved by lease expiry or death
    kNoTargets,      // nobody cached the document
  };

  WriteDelivery() = default;
  explicit WriteDelivery(std::string url) : url_(std::move(url)) {}

  const std::string& url() const { return url_; }
  void set_url(std::string url) { url_ = std::move(url); }

  // Registers one site the INVALIDATE must reach. `lease_until` is the
  // expiry the accelerator granted that site (net::kNoLease = the write
  // waits for this ack forever, the leaseless Section 4 behaviour).
  // Re-adding an existing unresolved site keeps the later expiry.
  void AddTarget(std::string_view site, Time lease_until);

  // The site acknowledged its invalidation. Idempotent; unknown sites are
  // ignored (a duplicated datagram may ack twice). Returns true when this
  // call resolved the whole delivery.
  bool Ack(std::string_view site);

  // The site will never acknowledge (connection refused, retry budget
  // exhausted). Consistency is preserved by the proxy-recovery rule, so the
  // write need not block on it. Returns true when this resolved delivery.
  bool MarkDead(std::string_view site);

  // Resolves every target whose lease has lapsed at `now` (half-open: a
  // lease is active while now < lease_until). Returns true when this call
  // resolved the whole delivery — the Section 6 guarantee that a write
  // blocks at most one lease duration.
  bool ExpireLeases(Time now);

  bool complete() const { return outstanding_ == 0; }
  int outstanding() const { return outstanding_; }
  int total_targets() const { return static_cast<int>(targets_.size()); }

  // Meaningful once complete(); kPending before that.
  Completion completion() const;

  // Earliest lease expiry among unresolved targets; net::kNoLease when none
  // expires. The engine uses it to know a sweep cannot matter yet.
  Time NextExpiry() const;

 private:
  struct Target {
    Time lease_until = net::kNoLease;
    bool resolved = false;
  };

  bool Resolve(std::string_view site, bool by_expiry);

  std::string url_;
  std::map<std::string, Target, std::less<>> targets_;
  int outstanding_ = 0;
  bool any_expired_ = false;
};

}  // namespace webcc::core
