// obs::Exporter — the single tabular export surface.
//
// Every exported table in the repo (per-epoch runtime metrics, bench CSVs,
// vulcan_sim --csv) flows through this interface: a header of column names
// followed by typed rows. Two implementations ship: CSV (byte-compatible
// with the legacy writers) and JSONL (one object per row).
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace vulcan::obs {

/// One cell. Strings are RFC 4180-quoted by the CSV backend only when they
/// contain a comma, quote or line break (clean cells stay raw, keeping
/// byte-compatibility with the legacy writers), and always quoted/escaped
/// by the JSONL backend.
using Value = std::variant<std::uint64_t, std::int64_t, double, std::string>;

class Exporter {
 public:
  virtual ~Exporter() = default;

  /// Declare the column names. Must precede the first row.
  virtual void begin(std::span<const std::string> columns) = 0;

  /// Emit one row; `values` aligns with the declared columns.
  virtual void row(std::span<const Value> values) = 0;

  /// Optional flush/trailer hook.
  virtual void end() {}
};

/// Comma-separated output. Number formatting matches `operator<<` defaults,
/// which keeps the output byte-identical with the legacy hand-rolled
/// writers it replaces.
class CsvExporter final : public Exporter {
 public:
  explicit CsvExporter(std::ostream& out) : out_(&out) {}

  void begin(std::span<const std::string> columns) override;
  void row(std::span<const Value> values) override;

 private:
  std::ostream* out_;
};

/// One JSON object per row: {"col": value, ...}.
class JsonlExporter final : public Exporter {
 public:
  explicit JsonlExporter(std::ostream& out) : out_(&out) {}

  void begin(std::span<const std::string> columns) override;
  void row(std::span<const Value> values) override;

 private:
  std::ostream* out_;
  std::vector<std::string> columns_;
};

/// Write `s` as a quoted JSON string: quote, backslash, \n, \r and \t
/// escaped, other control characters as lowercase \u00XX.
void write_json_string(std::ostream& out, std::string_view s);

}  // namespace vulcan::obs
