#include "obs/trace_reader.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <unordered_set>
#include <vector>

#include "util/fnv1a.h"

namespace webcc::obs {
namespace {

// Pulls the raw value text of `"key":` out of one JSONL line. Returns an
// empty view when the key is absent. Values are either a JSON string (the
// view excludes the quotes, escapes left as-is) or a bare number.
std::string_view FindField(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string_view::npos) return {};
  std::size_t start = pos + needle.size();
  if (start >= line.size()) return {};
  if (line[start] == '"') {
    ++start;
    std::size_t end = start;
    while (end < line.size() && line[end] != '"') {
      if (line[end] == '\\' && end + 1 < line.size()) ++end;
      ++end;
    }
    return line.substr(start, end - start);
  }
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

bool ParseInt64(std::string_view text, std::int64_t& out) {
  if (text.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

}  // namespace

TraceSummary SummarizeTrace(std::istream& in) {
  TraceSummary summary;
  // Ids interned since the last run_begin; events must not reference ids
  // outside this scope (the writer restarts interning per run).
  std::unordered_set<std::int64_t> known_ids;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string_view sv = line;
    const std::string_view event_name = FindField(sv, "e");
    if (event_name.empty()) {
      ++summary.malformed_lines;
      continue;
    }
    if (event_name == "intern") {
      std::int64_t id = 0;
      if (!ParseInt64(FindField(sv, "id"), id)) {
        ++summary.malformed_lines;
        continue;
      }
      known_ids.insert(id);
      ++summary.intern_lines;
      continue;
    }
    EventType type;
    if (!ParseEventTypeName(event_name, type)) {
      ++summary.unknown_events;
      continue;
    }
    std::int64_t at = 0;
    if (!ParseInt64(FindField(sv, "t"), at)) {
      ++summary.malformed_lines;
      continue;
    }
    if (type == EventType::kRunBegin) {
      ++summary.runs;
      known_ids.clear();
    }
    for (const std::string_view key : {"u", "s"}) {
      const std::string_view ref = FindField(sv, key);
      std::int64_t id = 0;
      if (!ref.empty() && ParseInt64(ref, id) && !known_ids.count(id)) {
        ++summary.undefined_ids;
      }
    }
    ++summary.total_events;
    ++summary.by_type[static_cast<std::size_t>(type)];
    if (summary.first_at < 0 || at < summary.first_at) summary.first_at = at;
    if (at > summary.last_at) summary.last_at = at;
  }
  return summary;
}

void WriteTraceSummary(std::ostream& out, const TraceSummary& summary) {
  out << "events:    " << summary.total_events << "\n"
      << "runs:      " << summary.runs << "\n"
      << "interns:   " << summary.intern_lines << "\n";
  if (summary.first_at >= 0) {
    out << "clock:     [" << summary.first_at << ", " << summary.last_at
        << "] us (span " << (summary.last_at - summary.first_at) << ")\n";
  }
  if (summary.malformed_lines > 0) {
    out << "malformed: " << summary.malformed_lines << "\n";
  }
  if (summary.unknown_events > 0) {
    out << "unknown:   " << summary.unknown_events << "\n";
  }
  if (summary.undefined_ids > 0) {
    out << "undefined-ids: " << summary.undefined_ids << "\n";
  }

  struct Row {
    std::uint64_t count;
    std::string_view name;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < summary.by_type.size(); ++i) {
    if (summary.by_type[i] == 0) continue;
    rows.push_back(
        {summary.by_type[i], EventTypeName(static_cast<EventType>(i))});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.name < b.name;
  });
  if (!rows.empty()) out << "by type:\n";
  for (const Row& row : rows) {
    out << "  " << row.name;
    for (std::size_t pad = row.name.size(); pad < 22; ++pad) out << ' ';
    out << row.count << "\n";
  }
}

std::uint64_t DigestJsonl(std::string_view text) {
  return util::Fnv1a(text);
}

std::streamsize DigestStreambuf::xsputn(const char* data,
                                        std::streamsize size) {
  hash_ = util::Fnv1a(std::string_view(data, static_cast<std::size_t>(size)),
                      hash_);
  return size;
}

DigestStreambuf::int_type DigestStreambuf::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    const char byte = traits_type::to_char_type(c);
    hash_ = util::Fnv1a(std::string_view(&byte, 1), hash_);
  }
  return traits_type::not_eof(c);
}

}  // namespace webcc::obs
