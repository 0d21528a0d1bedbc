// Versioned document store: the origin server's "file system".
//
// Each document carries a last-modified time and a monotone version number.
// The version is the replay harness's ground truth for staleness accounting
// (the paper could only estimate stale hits; we count them exactly), while
// last-modified is what the protocol itself sees, as in real HTTP.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

#include "core/intern.h"
#include "util/time.h"

namespace webcc::http {

struct Document {
  std::string path;
  std::uint64_t size_bytes = 0;
  Time last_modified = 0;
  std::uint64_t version = 1;
};

class DocumentStore {
 public:
  // Adds a document; `last_modified` may be negative (the file predates the
  // trace). Returns false if the path already exists.
  bool Add(std::string path, std::uint64_t size_bytes, Time last_modified);

  // nullptr when absent.
  const Document* Find(std::string_view path) const;

  // Simulates a write: bumps the version and sets last_modified. This is the
  // registration point at which a polling-every-time write is complete.
  // Returns false if the path is unknown.
  bool Touch(std::string_view path, Time now);

  std::size_t size() const { return documents_.size(); }
  std::uint64_t total_bytes() const { return total_bytes_; }

  void ForEach(const std::function<void(const Document&)>& fn) const;

 private:
  // Path -> index into documents_: Add interns each new path, so the intern
  // id is the document's position. Find and Touch hash the view in place.
  core::Interner index_;
  // Deque keeps Document addresses stable across Add (protocol handlers
  // hold Find() results across cost-station callbacks).
  std::deque<Document> documents_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace webcc::http
