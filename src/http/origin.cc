#include "http/origin.h"

namespace webcc::http {

std::optional<net::Reply> OriginReply(const DocumentStore& store,
                                      const net::Request& request) {
  const Document* doc = store.Find(request.url);
  if (doc == nullptr) return std::nullopt;

  net::Reply reply;
  reply.url = request.url;
  reply.last_modified = doc->last_modified;
  reply.version = doc->version;

  const bool modified_since =
      request.type == net::MessageType::kIfModifiedSince &&
      doc->last_modified <= request.if_modified_since;
  if (modified_since) {
    reply.type = net::MessageType::kReply304;
    reply.body_bytes = 0;
  } else {
    reply.type = net::MessageType::kReply200;
    reply.body_bytes = doc->size_bytes;
  }
  return reply;
}

}  // namespace webcc::http
