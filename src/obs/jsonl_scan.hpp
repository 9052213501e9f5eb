// Lenient field scanner shared by the offline readers (TraceRing::read_jsonl,
// the provenance JSONL loaders and FlightDump::parse). The writers emit flat
// objects, one per line, so a reader finds a field by its `"key":` token
// instead of parsing JSON. Internal to vulcan_obs.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

namespace vulcan::obs::jsonl {

/// The raw token after `"key":` in text[from, to): leading spaces skipped,
/// then up to the next ',', '}' or newline outside a string (backslash
/// escapes honoured). Empty view when the key is absent.
inline std::string_view raw_field(std::string_view text, std::string_view key,
                                  std::size_t from = 0,
                                  std::size_t to = std::string_view::npos) {
  to = std::min(to, text.size());
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = text.find(needle, from);
  if (pos == std::string_view::npos || pos >= to) return {};
  std::size_t start = pos + needle.size();
  while (start < to && text[start] == ' ') ++start;
  std::size_t end = start;
  bool in_string = false;
  bool escaped = false;
  while (end < to) {
    const char c = text[end];
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == ',' || c == '}' || c == '\n')) {
      break;
    }
    ++end;
  }
  return text.substr(start, end - start);
}

/// Strip a string token's quotes and decode its escapes (\uXXXX becomes
/// '?': lossy, fine for reports).
inline std::string unquote(std::string_view tok) {
  if (tok.size() >= 2 && tok.front() == '"' && tok.back() == '"') {
    tok = tok.substr(1, tok.size() - 2);
  }
  std::string out;
  out.reserve(tok.size());
  for (std::size_t i = 0; i < tok.size(); ++i) {
    const char c = tok[i];
    if (c == '\\' && i + 1 < tok.size()) {
      const char n = tok[++i];
      switch (n) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': i += 4; out += '?'; break;
        default: out += n; break;
      }
    } else {
      out += c;
    }
  }
  return out;
}

inline std::uint64_t parse_u64(std::string_view tok) {
  std::uint64_t v = 0;
  std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return v;
}

inline std::int64_t parse_i64(std::string_view tok) {
  std::int64_t v = 0;
  std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return v;
}

inline double parse_double(std::string_view tok) {
  return std::strtod(std::string(tok).c_str(), nullptr);
}

}  // namespace vulcan::obs::jsonl
