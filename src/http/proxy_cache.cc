#include "http/proxy_cache.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace webcc::http {

CacheEntry* ProxyCache::Lookup(const std::string& key, Time) {
  const LruList::iterator* it = FindResident(key, core::HashName(key));
  if (it == nullptr) return nullptr;
  CacheEntry& entry = **it;
  lru_.splice(lru_.begin(), lru_, *it);
  policy_->OnHit(ViewOf(entry));
  return &entry;
}

CacheEntry* ProxyCache::Peek(const std::string& key) {
  const LruList::iterator* it = FindResident(key, core::HashName(key));
  return it == nullptr ? nullptr : &**it;
}

void ProxyCache::IndexTtl(CacheEntry& entry) {
  entry.heap_stamp_ = next_stamp_++;
  if (entry.ttl_expires == kNeverExpires) return;
  ttl_index_.Push({entry.ttl_expires, entry.heap_stamp_, entry.id_});
}

void ProxyCache::Insert(CacheEntry entry, Time now) {
  entry.key_hash_ = core::HashName(entry.key);
  EraseKey(entry.key, entry.key_hash_);  // replace semantics
  if (entry.size_bytes > capacity_bytes_) {
    ++stats_.oversize_rejections;
    obs::Emit(trace_sink_, {.type = obs::EventType::kEviction,
                            .at = now,
                            .url = entry.url,
                            .site = entry.owner,
                            .detail = 2});
    return;  // uncacheable
  }
  while (bytes_used_ + entry.size_bytes > capacity_bytes_) EvictOne(now);

  bytes_used_ += entry.size_bytes;
  ++stats_.insertions;
  lru_.push_front(std::move(entry));
  Admit(lru_.begin());
  policy_->OnInsert(ViewOf(lru_.front()));
}

void ProxyCache::Admit(LruList::iterator it) {
  CacheEntry& entry = *it;
  if (free_ids_.empty()) {
    entry.id_ = static_cast<eviction::EntryId>(index_.size());
    index_.emplace_back();
  } else {
    entry.id_ = free_ids_.back();
    free_ids_.pop_back();
  }
  index_[entry.id_] = {it, true};
  keys_.Insert(entry.id_, entry.key_hash_);
  entry.url_id_ = urls_.Intern(entry.url);
  if (url_index_.size() < urls_.size()) url_index_.resize(urls_.size());
  url_index_[entry.url_id_].push_back(entry.id_);
  IndexTtl(entry);
}

bool ProxyCache::Erase(const std::string& key) {
  return EraseKey(key, core::HashName(key));
}

bool ProxyCache::EraseKey(std::string_view key, std::uint32_t hash) {
  const LruList::iterator* it = FindResident(key, hash);
  if (it == nullptr) return false;
  ++stats_.erased;
  RemoveEntry(*it);
  return true;
}

void ProxyCache::RemoveEntry(LruList::iterator it) {
  ttl_index_.Erase(it->id_);
  std::vector<eviction::EntryId>& ids = url_index_[it->url_id_];
  ids.erase(std::find(ids.begin(), ids.end(), it->id_));
  keys_.Erase(it->id_, it->key_hash_);
  index_[it->id_].resident = false;
  free_ids_.push_back(it->id_);
  bytes_used_ -= it->size_bytes;
  policy_->OnErase(ViewOf(*it));
  lru_.erase(it);
}

std::size_t ProxyCache::EraseByUrl(const std::string& url) {
  const core::InternId url_id = urls_.Find(url);
  if (url_id >= url_index_.size() || url_index_[url_id].empty()) return 0;
  // Copy out: RemoveEntry mutates the vector we are iterating. No entry is
  // admitted meanwhile, so no id in the copy is handed out again.
  const std::vector<eviction::EntryId> ids = url_index_[url_id];
  for (const eviction::EntryId id : ids) RemoveEntry(index_[id].entry);
  stats_.erased += ids.size();
  return ids.size();
}

std::vector<CacheEntry*> ProxyCache::TakeExpired(Time now,
                                                 std::size_t max_items) {
  std::vector<CacheEntry*> expired;
  while (expired.size() < max_items && !ttl_index_.empty() &&
         ttl_index_.top().expires <= now) {
    // Every record names a resident entry.
    expired.push_back(&**FindResident(ttl_index_.Pop().id));
  }
  return expired;
}

void ProxyCache::SetTtlExpiry(CacheEntry& entry, Time expires) {
  ttl_index_.Erase(entry.id_);
  entry.ttl_expires = expires;
  IndexTtl(entry);
}

eviction::EntryId ProxyCache::LruTailId() const {
  return std::prev(lru_.end())->id_;
}

void ProxyCache::EvictOne(Time now) {
  WEBCC_CHECK_MSG(!lru_.empty(), "eviction from an empty cache");
  const eviction::Victim victim = policy_->PickVictim(now, *this);
  const LruList::iterator* it = FindResident(victim.id);
  WEBCC_CHECK_MSG(it != nullptr, "policy picked a non-resident victim");
  ++stats_.evictions;
  if (victim.expired_rule) ++stats_.expired_evictions;
  obs::Emit(trace_sink_, {.type = obs::EventType::kEviction,
                          .at = now,
                          .url = (*it)->url,
                          .site = (*it)->owner,
                          .detail = victim.expired_rule ? 1 : 0});
  RemoveEntry(*it);
}

std::uint64_t ProxyCache::MemoryFootprintBytes() const {
  std::uint64_t bytes =
      keys_.MemoryFootprintBytes() + index_.capacity() * sizeof(IndexSlot) +
      free_ids_.capacity() * sizeof(eviction::EntryId) +
      url_index_.capacity() * sizeof(url_index_[0]) +
      ttl_index_.MemoryFootprintBytes() + policy_->MemoryFootprintBytes();
  for (const std::vector<eviction::EntryId>& ids : url_index_) {
    bytes += ids.capacity() * sizeof(eviction::EntryId);
  }
  return bytes;
}

void ProxyCache::ExportMetrics(obs::MetricsRegistry& registry,
                               std::string_view prefix) const {
  const auto name = [&prefix](std::string_view leaf) {
    std::string full(prefix);
    full += leaf;
    return full;
  };
  registry.SetCounter(name("insertions"), stats_.insertions);
  registry.SetCounter(name("evictions"), stats_.evictions);
  registry.SetCounter(name("expired_evictions"), stats_.expired_evictions);
  registry.SetCounter(name("erased"), stats_.erased);
  registry.SetCounter(name("bytes_used"), bytes_used());
  registry.SetCounter(name("entries"), lru_.size());
  registry.SetCounter(name("oversize_rejections"), stats_.oversize_rejections);
  policy_->ExportStats(registry, prefix);
}

void ProxyCache::MarkAllQuestionable() {
  for (CacheEntry& entry : lru_) entry.questionable = true;
}

std::size_t ProxyCache::MarkQuestionableWhere(
    const std::function<bool(const CacheEntry&)>& predicate) {
  std::size_t marked = 0;
  for (CacheEntry& entry : lru_) {
    if (!entry.questionable && predicate(entry)) {
      entry.questionable = true;
      ++marked;
    }
  }
  return marked;
}

}  // namespace webcc::http
