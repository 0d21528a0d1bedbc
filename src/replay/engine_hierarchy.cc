// Hierarchical-caching mode (Section 7): a shared parent proxy between the
// pseudo-clients and the server. The parent is one more proxy: it looks
// up, fetches through as site "parent", caches and revalidates by the
// shared protocol steps under the invalidation policy, as a leaf does.
// Toward the leaves it is a server: it answers each from its copy, keeps
// per document the leaves it answered, and forwards invalidations down to
// them.
#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "obs/event.h"
#include "replay/engine_impl.h"

namespace webcc::replay::detail {
namespace {

// A 200 carrying the parent's copy. The leaf's copy holds the parent's
// lease, past which the server no longer promises the parent an
// invalidation.
net::Reply ReplyOf(const http::CacheEntry& copy) {
  net::Reply reply;
  reply.type = net::MessageType::kReply200;
  reply.url = copy.url;
  reply.body_bytes = copy.size_bytes;
  reply.last_modified = copy.last_modified;
  reply.version = copy.version;
  reply.lease_until = copy.lease_expires;
  return reply;
}

}  // namespace

void Engine::ParentHandle(LeafRequest leaf) {
  core::FetchStart start = core::StartFetch(
      *parent_cache_, *policy_, leaf.request.url, "parent", leaf.trace_time);
  if (start.hit != nullptr) {
    // Served from the parent's shared cache: no server involvement.
    ++metrics_.parent_hits;
    ParentAnswer(ReplyOf(*start.hit), std::move(leaf));
    return;
  }
  // A miss, a questionable copy or a lapsed lease: fetch through to the
  // server as "parent", with the parent's own validator.
  ++metrics_.parent_fetches;
  const std::uint64_t wire = net::WireSize(start.request);
  metrics_.message_bytes += wire;
  net_.Send(ParentNode(), ServerNode(), wire,
            [this, upstream = std::move(start.request),
             leaf = std::move(leaf)]() mutable {
              ServerHandleForParent(upstream, std::move(leaf));
            });
}

void Engine::ServerHandleForParent(const net::Request& upstream,
                                   LeafRequest leaf) {
  std::optional<net::Reply> reply =
      site_.Serve(upstream, leaf.trace_time, /*psi_cursor=*/nullptr);
  WEBCC_CHECK_MSG(reply.has_value(), "trace referenced an unknown document");

  const Time ready = ChargeServe(*reply, /*extra_cpu=*/0);
  // Hop-2 replies are counted via parent_fetches; bytes are real traffic.
  metrics_.message_bytes += net::WireSize(*reply);
  const std::uint64_t wire_bytes = TransferBytes(*reply);

  sim_.At(ready, [this, reply = std::move(*reply), leaf = std::move(leaf),
                  wire_bytes]() mutable {
    net_.Send(ServerNode(), ParentNode(), wire_bytes,
              [this, reply = std::move(reply),
               leaf = std::move(leaf)]() mutable {
                ParentReceiveReply(std::move(reply), std::move(leaf));
              });
  });
}

void Engine::ParentReceiveReply(net::Reply reply, LeafRequest leaf) {
  if (reply.type == net::MessageType::kReply200) {
    core::CacheTransfer(*parent_cache_, *policy_, reply, "parent",
                        leaf.trace_time);
    ParentAnswer(std::move(reply), std::move(leaf));
    return;
  }
  const http::CacheEntry* copy = core::Revalidate(
      *parent_cache_, *policy_, reply, "parent", leaf.trace_time);
  if (copy == nullptr) {
    // The parent's copy was evicted while its IMS was out: the 304
    // certifies a copy that no longer exists. Fetch again.
    ParentHandle(std::move(leaf));
    return;
  }
  ParentAnswer(ReplyOf(*copy), std::move(leaf));
}

void Engine::ParentAnswer(net::Reply copy, LeafRequest leaf) {
  // The comparison http::OriginReply makes: a leaf copy as new as the
  // parent's is certified with a 304.
  if (leaf.request.type == net::MessageType::kIfModifiedSince &&
      copy.last_modified <= leaf.request.if_modified_since) {
    copy.type = net::MessageType::kReply304;
    copy.body_bytes = 0;
  }
  // The leaf is registered as it is answered, as the accelerator registers
  // a site it serves: every invalidation the parent receives from now on
  // is forwarded to it.
  std::vector<int>& leaves = leaf_interest_[copy.url];
  const auto at =
      std::lower_bound(leaves.begin(), leaves.end(), leaf.client_index);
  if (at == leaves.end() || *at != leaf.client_index) {
    leaves.insert(at, leaf.client_index);
  }

  CountReply(copy, leaf.request.client_id, leaf.trace_time);
  metrics_.message_bytes += net::WireSize(copy);
  const std::uint64_t wire_bytes = TransferBytes(copy);
  const sim::NodeId node = clients_[leaf.client_index].node;
  const Time ready = parent_cpu_->Enqueue(kProxyHitTime);
  sim_.At(ready, [this, node, reply = std::move(copy), leaf = std::move(leaf),
                  wire_bytes]() mutable {
    net_.Send(ParentNode(), node, wire_bytes,
              [this, reply = std::move(reply),
               leaf = std::move(leaf)]() mutable {
                DeliverReply(leaf.client_index, leaf.seq, std::move(reply),
                             std::move(leaf.request.client_id),
                             leaf.trace_time);
              });
  });
}

void Engine::ParentDeliverPush(const Push& push, std::uint64_t wire) {
  // Batching is off under `hierarchical`, so a frame for the parent
  // carries one URL and one write id.
  WEBCC_DCHECK(push.urls.size() == 1 && push.write_ids.front().size() == 1);
  const std::string& url = push.urls.front();
  const std::uint64_t mod_id = push.write_ids.front().front();
  const bool notice = push.server_notice;
  std::vector<int> leaves;
  if (notice) {
    // Server-site recovery: the parent must assume everything below it may
    // be stale, its own copies and every leaf's.
    parent_cache_->MarkAllQuestionable();
    leaves.resize(clients_.size());
    std::iota(leaves.begin(), leaves.end(), 0);
  } else {
    parent_cache_->EraseByUrl(url);
    ++metrics_.invalidations_delivered;
    obs::Emit(sink_, {.type = obs::EventType::kInvalidateDelivered,
                      .at = sim_.now(),
                      .url = url,
                      .site = "parent"});
    leaves = std::exchange(leaf_interest_[url], {});
    // The write completes when every leaf answered since the last
    // invalidation has been reached. Leaf forwards carry no lease (the
    // parent holds the server-facing lease), so they resolve only by
    // delivery or target death, never by expiry.
    const auto pending = pending_mod_targets_.find(mod_id);
    if (pending != pending_mod_targets_.end()) {
      for (const int index : leaves) {
        pending->second.delivery.AddTarget(leaf_names_[index], net::kNoLease);
      }
    }
  }

  // The forwards go over TCP like the server's pushes: a lost one would
  // leave its leaf serving a stale copy. A recovery notice closes the
  // write gap only once each forward it caused has landed, delivered or
  // refused; a refused leaf is down and revalidates everything when it
  // restarts.
  const auto in_flight = std::make_shared<std::size_t>(leaves.size());
  const auto landed = [this, in_flight, recovery = push.recovery] {
    if (--*in_flight == 0 && recovery) FinishRecoveryNotice();
  };
  for (const int index : leaves) {
    ++metrics_.hierarchy_forwards;
    net::Invalidation forward;
    forward.type = net::MessageType::kInvalidateUrl;
    forward.url = url;
    forward.client_id = leaf_names_[index];
    const std::uint64_t bytes = notice ? wire : net::WireSize(forward);
    metrics_.message_bytes += bytes;
    net_.SendReliable(
        ParentNode(), clients_[index].node, bytes,
        [this, index, url, mod_id, notice, landed] {
          http::ProxyCache& cache = *clients_[index].cache;
          if (notice) {
            cache.MarkAllQuestionable();
          } else {
            cache.EraseByUrl(url);
            ++metrics_.invalidations_delivered;
            obs::Emit(sink_, {.type = obs::EventType::kInvalidateDelivered,
                              .at = sim_.now(),
                              .url = url,
                              .site = leaf_names_[index]});
            ResolveWriteTarget(mod_id, leaf_names_[index], /*dead=*/false);
          }
          landed();
        },
        [this, index, url, mod_id, notice, landed](
            sim::Network::SendResult result, Time done_at) {
          if (result == sim::Network::SendResult::kDelivered) return;
          if (!notice) {
            ++metrics_.invalidations_refused;
            obs::Emit(sink_, {.type = obs::EventType::kInvalidateRefused,
                              .at = done_at,
                              .url = url,
                              .site = leaf_names_[index]});
            ResolveWriteTarget(mod_id, leaf_names_[index], /*dead=*/true);
          }
          landed();
        });
  }

  // The parent's own slot (the server targeted "parent") is now resolved.
  if (!notice) ResolveWriteTarget(mod_id, "parent", /*dead=*/false);
  if (push.recovery && leaves.empty()) FinishRecoveryNotice();
}

}  // namespace webcc::replay::detail
