// Hierarchical-caching mode (Section 7): a shared parent proxy between the
// pseudo-clients and the server. The parent serves leaf GETs from its own
// cache while the server's lease on its copy holds, fetches through as site
// "parent", remembers per-document leaf interest, and forwards
// invalidations down to the leaves that fetched the document since the
// last invalidation.
#include "core/lease.h"
#include "http/cache_key.h"
#include "obs/event.h"
#include "replay/engine.h"
#include "replay/engine_impl.h"

namespace webcc::replay::detail {

void Engine::ParentHandle(const net::Request& request, int client_index,
                          std::uint64_t seq, Time trace_time) {
  // Remember this leaf's interest so an invalidation can be forwarded.
  parent_table_->Register(request.url, "leaf-" + std::to_string(client_index),
                          net::MessageType::kGet, trace_time);

  http::CacheEntry* entry =
      parent_cache_->Lookup(http::ComposeCacheKey(request.url, "parent"));
  if (entry != nullptr && !entry->questionable &&
      core::LeaseActive(entry->lease_expires, trace_time) &&
      request.type == net::MessageType::kGet) {
    // Served from the parent's shared cache: no server involvement. The
    // leaf's copy holds the parent's lease, past which the server no
    // longer promises the parent an invalidation.
    ++metrics_.parent_hits;
    net::Reply reply;
    reply.type = net::MessageType::kReply200;
    reply.url = request.url;
    reply.body_bytes = entry->size_bytes;
    reply.last_modified = entry->last_modified;
    reply.version = entry->version;
    reply.lease_until = entry->lease_expires;
    CountReply(reply, request.client_id, trace_time);
    metrics_.message_bytes += net::WireSize(reply);
    const std::uint64_t wire_bytes = TransferBytes(reply);
    const Time ready = parent_cpu_->Enqueue(kProxyHitTime);
    sim_.At(ready, [this, client_index, seq, reply = std::move(reply),
                    owner = request.client_id, trace_time,
                    wire_bytes]() mutable {
      net_.Send(ParentNode(), clients_[client_index].node, wire_bytes,
                [this, client_index, seq, reply = std::move(reply),
                 owner = std::move(owner), trace_time]() mutable {
                  DeliverReply(client_index, seq, std::move(reply),
                               std::move(owner), trace_time);
                });
    });
    return;
  }

  // Miss, a validation, or a lapsed lease: fetch through to the server as
  // "parent".
  ++metrics_.parent_fetches;
  const bool leaf_wanted_body = request.type == net::MessageType::kGet;
  net::Request upstream = request;
  std::string owner = request.client_id;
  upstream.client_id = "parent";
  if (entry != nullptr && request.type == net::MessageType::kGet) {
    // Questionable parent copy revalidates rather than refetching.
    upstream.type = net::MessageType::kIfModifiedSince;
    upstream.if_modified_since = entry->last_modified;
  }
  const std::uint64_t wire = net::WireSize(upstream);
  metrics_.message_bytes += wire;
  net_.Send(ParentNode(), ServerNode(), wire,
            [this, upstream = std::move(upstream), client_index, seq,
             owner = std::move(owner), leaf_wanted_body,
             trace_time]() mutable {
              ServerHandleForParent(std::move(upstream), client_index, seq,
                                    std::move(owner), leaf_wanted_body,
                                    trace_time);
            });
}

void Engine::ServerHandleForParent(net::Request request, int client_index,
                                   std::uint64_t seq, std::string owner,
                                   bool leaf_wanted_body, Time trace_time) {
  std::optional<net::Reply> reply =
      site_.Serve(request, trace_time, /*psi_cursor=*/nullptr);
  WEBCC_CHECK_MSG(reply.has_value(), "trace referenced an unknown document");

  const Time ready = ChargeServe(*reply, /*extra_cpu=*/0);
  // Hop-2 replies are counted via parent_fetches; bytes are real traffic.
  metrics_.message_bytes += net::WireSize(*reply);
  const std::uint64_t wire_bytes = TransferBytes(*reply);

  sim_.At(ready, [this, client_index, seq, reply = std::move(*reply),
                  owner = std::move(owner), leaf_wanted_body, trace_time,
                  wire_bytes]() mutable {
    net_.Send(ServerNode(), ParentNode(), wire_bytes,
              [this, client_index, seq, reply = std::move(reply),
               owner = std::move(owner), leaf_wanted_body,
               trace_time]() mutable {
                ParentReceiveReply(std::move(reply), client_index, seq,
                                   std::move(owner), leaf_wanted_body,
                                   trace_time);
              });
  });
}

void Engine::ParentReceiveReply(net::Reply reply, int client_index,
                                std::uint64_t seq, std::string owner,
                                bool leaf_wanted_body, Time trace_time) {
  const std::string parent_key = http::ComposeCacheKey(reply.url, "parent");
  if (reply.type == net::MessageType::kReply200) {
    http::CacheEntry entry;
    entry.key = parent_key;
    entry.url = reply.url;
    entry.owner = "parent";
    entry.size_bytes = reply.body_bytes;
    entry.last_modified = reply.last_modified;
    entry.version = reply.version;
    entry.fetched_at = trace_time;
    entry.lease_expires = reply.lease_until;  // kNoLease never expires
    parent_cache_->Insert(std::move(entry), trace_time);
  } else {
    http::CacheEntry* entry = parent_cache_->Peek(parent_key);
    if (entry == nullptr && leaf_wanted_body) {
      // The parent's copy was evicted while this validation was in flight:
      // the 304 certifies a copy that no longer exists. Refetch it so the
      // leaf's GET is answered with a body.
      ++metrics_.parent_fetches;
      net::Request refetch;
      refetch.type = net::MessageType::kGet;
      refetch.url = reply.url;
      refetch.client_id = "parent";
      const std::uint64_t wire = net::WireSize(refetch);
      metrics_.message_bytes += wire;
      net_.Send(ParentNode(), ServerNode(), wire,
                [this, refetch = std::move(refetch), client_index, seq,
                 owner = std::move(owner), trace_time]() mutable {
                  ServerHandleForParent(std::move(refetch), client_index, seq,
                                        std::move(owner),
                                        /*leaf_wanted_body=*/true, trace_time);
                });
      return;
    }
    if (entry != nullptr) {
      entry->questionable = false;
      entry->lease_expires = reply.lease_until;
      if (leaf_wanted_body) {
        // The leaf asked for a body but the server certified the parent's
        // copy fresh: serve the revalidated copy as a 200.
        reply.type = net::MessageType::kReply200;
        reply.body_bytes = entry->size_bytes;
        reply.version = entry->version;
      }
    }
  }

  // Forward to the leaf (this is the leaf-facing reply).
  CountReply(reply, owner, trace_time);
  metrics_.message_bytes += net::WireSize(reply);
  const std::uint64_t wire_bytes = TransferBytes(reply);
  const Time ready = parent_cpu_->Enqueue(kProxyHitTime);
  sim_.At(ready, [this, client_index, seq, reply = std::move(reply),
                  owner = std::move(owner), trace_time,
                  wire_bytes]() mutable {
    net_.Send(ParentNode(), clients_[client_index].node, wire_bytes,
              [this, client_index, seq, reply = std::move(reply),
               owner = std::move(owner), trace_time]() mutable {
                DeliverReply(client_index, seq, std::move(reply),
                             std::move(owner), trace_time);
              });
  });
}

void Engine::ParentDeliverInvalidation(const std::string& url,
                                       std::uint64_t mod_id) {
  parent_cache_->EraseByUrl(url);
  ++metrics_.invalidations_delivered;
  obs::Emit(sink_, {.type = obs::EventType::kInvalidateDelivered,
                    .at = sim_.now(),
                    .url = url,
                    .site = "parent"});

  // Forward to the leaf proxies that fetched this document since the last
  // invalidation; the write completes when they have all been reached. Leaf
  // forwards carry no lease (the parent holds the server-facing lease), so
  // they resolve only by delivery or target death, never by expiry.
  std::vector<std::string> leaves =
      parent_table_->TakeSitesForInvalidation(url, sim_.now());
  const auto pending = pending_mod_targets_.find(mod_id);
  if (pending != pending_mod_targets_.end()) {
    for (const std::string& leaf : leaves) {
      pending->second.delivery.AddTarget(leaf, net::kNoLease);
    }
  }
  for (const std::string& leaf : leaves) {
    // The interest table only ever holds names this engine registered, so a
    // parse failure means the table (not the trace) is corrupt.
    int index = -1;
    WEBCC_CHECK_MSG(ParseLeafIndex(leaf, index),
                    "malformed hierarchy site name: " + leaf);
    WEBCC_CHECK_MSG(index >= 0 && index < static_cast<int>(clients_.size()),
                    "hierarchy site name out of range: " + leaf);
    ++metrics_.hierarchy_forwards;
    net::Invalidation forward;
    forward.type = net::MessageType::kInvalidateUrl;
    forward.url = url;
    forward.client_id = leaf;
    metrics_.message_bytes += net::WireSize(forward);
    net_.SendReliable(
        ParentNode(), clients_[index].node, net::WireSize(forward),
        [this, url, index, mod_id, forward] {
          clients_[index].cache->EraseByUrl(url);
          ++metrics_.invalidations_delivered;
          obs::Emit(sink_, {.type = obs::EventType::kInvalidateDelivered,
                            .at = sim_.now(),
                            .url = url,
                            .site = forward.client_id});
          ResolveWriteTarget(mod_id, forward.client_id, /*dead=*/false);
        },
        [this, forward, mod_id](sim::Network::SendResult result,
                                Time done_at) {
          if (result == sim::Network::SendResult::kDelivered) return;
          ++metrics_.invalidations_refused;
          obs::Emit(sink_, {.type = obs::EventType::kInvalidateRefused,
                            .at = done_at,
                            .url = forward.url,
                            .site = forward.client_id});
          ResolveWriteTarget(mod_id, forward.client_id, /*dead=*/true);
        });
  }

  // The parent's own slot (the server targeted "parent") is now resolved.
  ResolveWriteTarget(mod_id, "parent", /*dead=*/false);
}

void Engine::ParentDeliverServerNotice(std::uint64_t wire) {
  // Server-site recovery reaches the parent, which must assume everything
  // below it may be stale: its own cache and every leaf's become
  // questionable. The forwards go over TCP like the URL forwards: a lost
  // one would leave that leaf serving stale copies. A refused forward
  // needs no follow-up, since a down leaf revalidates everything when it
  // restarts.
  parent_cache_->MarkAllQuestionable();
  for (PseudoClient& pc : clients_) {
    ++metrics_.hierarchy_forwards;
    metrics_.message_bytes += wire;
    net_.SendReliable(ParentNode(), pc.node, wire,
                      [&pc] { pc.cache->MarkAllQuestionable(); },
                      /*done=*/nullptr);
  }
}

}  // namespace webcc::replay::detail
