#include "http/document_store.h"

#include <utility>

namespace webcc::http {

bool DocumentStore::Add(std::string path, std::uint64_t size_bytes,
                        Time last_modified) {
  if (index_.Intern(path) != documents_.size()) return false;  // known path
  Document doc;
  doc.path = std::move(path);
  doc.size_bytes = size_bytes;
  doc.last_modified = last_modified;
  documents_.push_back(std::move(doc));
  total_bytes_ += size_bytes;
  return true;
}

const Document* DocumentStore::Find(std::string_view path) const {
  const core::InternId id = index_.Find(path);
  return id == core::kNoInternId ? nullptr : &documents_[id];
}

bool DocumentStore::Touch(std::string_view path, Time now) {
  const core::InternId id = index_.Find(path);
  if (id == core::kNoInternId) return false;
  Document& doc = documents_[id];
  doc.last_modified = now;
  ++doc.version;
  return true;
}

void DocumentStore::ForEach(
    const std::function<void(const Document&)>& fn) const {
  for (const Document& doc : documents_) fn(doc);
}

}  // namespace webcc::http
