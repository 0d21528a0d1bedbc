// A minimal recursive-descent parser for the fixed JSON dialect the repo's
// declarative config files (fault plans, synth scenarios) and the
// BENCH_farm.json results file use: objects, arrays, double-quoted strings
// without escapes beyond \" and \\, numbers, true/false. It is not a
// general JSON parser and does not try to be; golden files are written in
// the same dialect their ToJson emits.
//
// Extracted from fault/plan.cc so the ScenarioConfig dialect (synth/) parses
// through the identical machinery — same error shape ("... at offset N"),
// same fuzz-hardened string/number handling, same range-checked fields.
#pragma once

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "util/time.h"

namespace webcc::util {

class MiniJsonParser {
 public:
  explicit MiniJsonParser(std::string_view text) : text_(text) {}

  std::string error() const { return error_; }

  bool Fail(std::string_view message) {
    if (error_.empty()) {
      error_ = std::string(message) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= text_.size();
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out += text_[pos_++];
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(double& out) {
    SkipWs();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    out = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                      nullptr);
    return true;
  }

  // Captures one JSON value as raw text: strings come back unquoted,
  // numbers/bools as their literal spelling, objects/arrays verbatim from
  // the opening bracket through its match (brackets inside strings do not
  // count). Used for "expect" values and BENCH_farm.json's top-level keys.
  bool ParseRawValue(std::string& out) {
    SkipWs();
    if (Peek('"')) return ParseString(out);
    const std::size_t start = pos_;
    if (Peek('{') || Peek('[')) {
      std::string closers;
      bool in_string = false;
      for (; pos_ < text_.size(); ++pos_) {
        const char c = text_[pos_];
        if (in_string) {
          if (c == '\\' && pos_ + 1 < text_.size()) {
            ++pos_;
          } else if (c == '"') {
            in_string = false;
          }
        } else if (c == '"') {
          in_string = true;
        } else if (c == '{' || c == '[') {
          closers.push_back(c == '{' ? '}' : ']');
        } else if (c == '}' || c == ']') {
          if (c != closers.back()) return Fail("mismatched bracket");
          closers.pop_back();
          if (closers.empty()) {
            ++pos_;
            out = std::string(text_.substr(start, pos_ - start));
            return true;
          }
        }
      }
      return Fail("unterminated value");
    }
    while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
           text_[pos_] != ']' && text_[pos_] != '\n') {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    std::string_view raw = text_.substr(start, pos_ - start);
    while (!raw.empty() && (raw.back() == ' ' || raw.back() == '\t')) {
      raw = raw.substr(0, raw.size() - 1);
    }
    out = std::string(raw);
    return true;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// Reads a number from [min, max] into `out`; any other number (NaN
// included) fails as "<key> out of range".
inline bool ParseNumberField(MiniJsonParser& p, std::string_view key,
                             double min, double max, double& out) {
  if (!p.ParseNumber(out)) return false;
  if (!(out >= min && out <= max)) {
    return p.Fail(std::string(key) + " out of range");
  }
  return true;
}

// Longest trace time the dialects accept: ~31 years, far past any scenario
// or fault plan and comfortably inside both llround() and %.6f-exactness
// territory, so a %.6f round trip of an accepted time is exact.
inline constexpr double kMaxFieldSeconds = 1.0e9;

// Reads a time in seconds from [0, kMaxFieldSeconds].
inline bool ParseTimeField(MiniJsonParser& p, std::string_view key,
                           Time& out) {
  double v = 0;
  if (!ParseNumberField(p, key, 0.0, kMaxFieldSeconds, v)) return false;
  out = static_cast<Time>(std::llround(v * 1e6));
  return true;
}

// Reads a count from [0, max], dropping any fraction.
inline bool ParseCountField(MiniJsonParser& p, std::string_view key,
                            double max, std::uint64_t& out) {
  double v = 0;
  if (!ParseNumberField(p, key, 0.0, max, v)) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace webcc::util
