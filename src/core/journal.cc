#include "core/journal.h"

#include <charconv>
#include <cstdio>

#include "util/check.h"
#include "util/fnv1a.h"

namespace webcc::core {
namespace {

std::string ChecksumHex(std::string_view body) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(util::Fnv1a(body)));
  return buf;
}

// Splits `line` on single spaces into at most `max_fields` pieces; returns
// the count, or -1 when the line has more fields than expected.
int SplitFields(std::string_view line, std::string_view* fields,
                int max_fields) {
  int count = 0;
  while (!line.empty()) {
    if (count == max_fields) return -1;
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      fields[count++] = line;
      break;
    }
    fields[count++] = line.substr(0, space);
    line.remove_prefix(space + 1);
  }
  return count;
}

bool ParseI64(std::string_view text, std::int64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool ParseU64(std::string_view text, std::uint64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

// Parses one checksummed line into an Entry. False = damaged.
bool ParseRecord(std::string_view line, SiteJournal::Entry& entry) {
  // "<hex16> <body>"
  if (line.size() < 18 || line[16] != ' ') return false;
  const std::string_view checksum = line.substr(0, 16);
  const std::string_view body = line.substr(17);
  if (ChecksumHex(body) != checksum) return false;
  std::string_view fields[4];
  const int count = SplitFields(body, fields, 4);
  if (count < 2 || fields[0].size() != 1) return false;
  entry.kind = fields[0][0];
  entry.url = std::string(fields[1]);
  switch (entry.kind) {
    case 'R': {
      if (count != 4) return false;
      entry.site = std::string(fields[2]);
      std::int64_t lease = 0;
      if (!ParseI64(fields[3], lease)) return false;
      entry.lease_until = lease;
      return true;
    }
    case 'I':
      return count == 2;
    case 'V': {
      if (count != 3) return false;
      return ParseU64(fields[2], entry.version);
    }
    default:
      return false;  // unknown record type: treat as damage
  }
}

}  // namespace

void SiteJournal::AppendLine(std::string_view body) {
  text_ += ChecksumHex(body);
  text_ += ' ';
  text_ += body;
  text_ += '\n';
  ++appends_;
}

void SiteJournal::AppendRegister(std::string_view url, std::string_view site,
                                 Time lease_until) {
  WEBCC_DCHECK(url.find(' ') == std::string_view::npos);
  WEBCC_DCHECK(site.find(' ') == std::string_view::npos);
  std::string body = "R ";
  body += url;
  body += ' ';
  body += site;
  body += ' ';
  body += std::to_string(lease_until);
  AppendLine(body);
}

void SiteJournal::AppendInvalidate(std::string_view url) {
  std::string body = "I ";
  body += url;
  AppendLine(body);
}

void SiteJournal::AppendVersion(std::string_view url, std::uint64_t version) {
  std::string body = "V ";
  body += url;
  body += ' ';
  body += std::to_string(version);
  AppendLine(body);
}

SiteJournal::ReplayResult SiteJournal::Replay(std::string_view text) {
  ReplayResult result;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t newline = text.find('\n', pos);
    if (newline == std::string_view::npos) {
      // Torn final record: the append never finished, so (append-before-act)
      // the action it describes never happened. Dropping it is exact.
      result.truncated_tail = true;
      break;
    }
    const std::string_view line = text.substr(pos, newline - pos);
    pos = newline + 1;
    if (result.damaged) {
      ++result.records_rejected;
      continue;
    }
    Entry entry;
    if (ParseRecord(line, entry)) {
      result.entries.push_back(std::move(entry));
    } else {
      // Mid-journal damage: everything from here is untrustworthy. The
      // caller must fall back to the conservative broadcast.
      result.damaged = true;
      ++result.records_rejected;
    }
  }
  result.records_applied = result.entries.size();
  return result;
}

}  // namespace webcc::core
