#include "obs/exporter.hpp"

#include <cmath>

namespace vulcan::obs {

namespace {

/// RFC 4180 quoting, applied only when the cell needs it (comma, quote or
/// line break) so clean cells stay byte-identical with the legacy writers.
void write_csv_string(std::ostream& out, const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    out << s;
    return;
  }
  out << '"';
  for (const char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

void write_csv_value(std::ostream& out, const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) {
    write_csv_string(out, *s);
    return;
  }
  std::visit([&](const auto& x) { out << x; }, v);
}

}  // namespace

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Remaining control characters need the \u00XX form.
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

namespace {

void write_json_value(std::ostream& out, const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) {
    write_json_string(out, *s);
    return;
  }
  if (const auto* d = std::get_if<double>(&v)) {
    if (!std::isfinite(*d)) {
      out << "null";  // JSON has no NaN or infinities
      return;
    }
  }
  std::visit([&](const auto& x) { out << x; }, v);
}

}  // namespace

void CsvExporter::begin(std::span<const std::string> columns) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) *out_ << ',';
    write_csv_string(*out_, columns[i]);
  }
  *out_ << '\n';
}

void CsvExporter::row(std::span<const Value> values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) *out_ << ',';
    write_csv_value(*out_, values[i]);
  }
  *out_ << '\n';
}

void JsonlExporter::begin(std::span<const std::string> columns) {
  columns_.assign(columns.begin(), columns.end());
}

void JsonlExporter::row(std::span<const Value> values) {
  *out_ << '{';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) *out_ << ',';
    write_json_string(*out_, i < columns_.size() ? columns_[i]
                                                 : std::string("col"));
    *out_ << ':';
    write_json_value(*out_, values[i]);
  }
  *out_ << "}\n";
}

}  // namespace vulcan::obs
