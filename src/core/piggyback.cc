#include "core/piggyback.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace webcc::core {

std::vector<net::PcvStale> ValidatePiggyback(
    const http::DocumentStore& store,
    const std::vector<net::PcvQuery>& queries) {
  std::vector<net::PcvStale> stale;
  for (const net::PcvQuery& query : queries) {
    const http::Document* doc = store.Find(query.url);
    // Unknown documents (deleted at the origin) are invalid by definition.
    if (doc == nullptr || doc->last_modified > query.last_modified) {
      stale.push_back(net::PcvStale{query.url, query.owner});
    }
  }
  return stale;
}

namespace {
// Per-item framing on the wire: a length byte pair plus the timestamp.
constexpr std::uint64_t kPerItemOverheadBytes = 12;
}  // namespace

std::uint64_t PcvRequestExtraBytes(const std::vector<net::PcvQuery>& queries) {
  std::uint64_t bytes = 0;
  for (const net::PcvQuery& query : queries) {
    bytes += query.url.size() + kPerItemOverheadBytes;
  }
  return bytes;
}

std::uint64_t PcvReplyExtraBytes(const std::vector<net::PcvStale>& stale) {
  // The reply lists only the invalid copies (url, owner, separator); valid
  // entries are implied.
  std::uint64_t bytes = 0;
  for (const net::PcvStale& copy : stale) {
    bytes += copy.url.size() + copy.owner.size() + 3;
  }
  return bytes;
}

void ModificationLog::Record(Time at, std::string url) {
  WEBCC_CHECK_MSG(entries_.empty() || at >= entries_.back().first,
                  "modification log must be appended in time order");
  entries_.emplace_back(at, std::move(url));
}

ModificationLog::Window ModificationLog::CollectSince(
    Time since, Time now, std::size_t max_urls) const {
  Window window;
  window.advanced_to = since;
  if (since >= now) return window;

  // First entry with time > since.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), since,
      [](Time value, const auto& entry) { return value < entry.first; });

  std::unordered_set<std::string> seen;
  for (; it != entries_.end() && it->first <= now; ++it) {
    if (seen.count(it->second) != 0) {
      window.advanced_to = it->first;
      continue;
    }
    if (window.urls.size() == max_urls) {
      // Truncated: leave the cursor at the last included modification so the
      // remainder is picked up on the proxy's next contact.
      return window;
    }
    window.urls.push_back(it->second);
    seen.insert(it->second);
    window.advanced_to = it->first;
  }
  window.advanced_to = now;
  return window;
}

std::uint64_t PsiReplyExtraBytes(const std::vector<std::string>& urls) {
  std::uint64_t bytes = 0;
  for (const std::string& url : urls) bytes += url.size() + 2;
  return bytes;
}

}  // namespace webcc::core
