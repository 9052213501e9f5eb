#include "obs/exporter.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace vulcan::obs {
namespace {

std::string render_csv(const std::vector<std::string>& columns,
                       const std::vector<Value>& values) {
  std::ostringstream out;
  CsvExporter csv(out);
  csv.begin(columns);
  csv.row(values);
  csv.end();
  return out.str();
}

std::string render_jsonl(const std::vector<std::string>& columns,
                         const std::vector<Value>& values) {
  std::ostringstream out;
  JsonlExporter jsonl(out);
  jsonl.begin(columns);
  jsonl.row(values);
  jsonl.end();
  return out.str();
}

TEST(CsvExporter, CleanCellsStayUnquoted) {
  const std::string got = render_csv(
      {"epoch", "policy", "fthr"},
      {Value{std::uint64_t{3}}, Value{std::string("vulcan")}, Value{0.5}});
  EXPECT_EQ(got, "epoch,policy,fthr\n3,vulcan,0.5\n");
}

TEST(CsvExporter, QuotesCellsWithSeparators) {
  const std::string got =
      render_csv({"name"}, {Value{std::string("memcached, hot")}});
  EXPECT_EQ(got, "name\n\"memcached, hot\"\n");
}

TEST(CsvExporter, DoublesEmbeddedQuotes) {
  const std::string got =
      render_csv({"name"}, {Value{std::string("the \"fast\" tier")}});
  EXPECT_EQ(got, "name\n\"the \"\"fast\"\" tier\"\n");
}

TEST(CsvExporter, QuotesLineBreaks) {
  const std::string got =
      render_csv({"note"}, {Value{std::string("line1\nline2\rline3")}});
  EXPECT_EQ(got, "note\n\"line1\nline2\rline3\"\n");
}

TEST(CsvExporter, QuotesHeaderCellsToo) {
  const std::string got =
      render_csv({"a,b", "plain"},
                 {Value{std::uint64_t{1}}, Value{std::uint64_t{2}}});
  EXPECT_EQ(got, "\"a,b\",plain\n1,2\n");
}

TEST(CsvExporter, NegativeAndFloatFormattingMatchesStreams) {
  std::ostringstream reference;
  reference << -42 << ',' << 0.125 << '\n';
  const std::string got =
      render_csv({"i", "d"}, {Value{std::int64_t{-42}}, Value{0.125}});
  EXPECT_EQ(got, "i,d\n" + reference.str());
}

TEST(JsonlExporter, EscapesQuotesBackslashesAndWhitespace) {
  const std::string got = render_jsonl(
      {"s"}, {Value{std::string("a\"b\\c\nd\re\tf")}});
  EXPECT_EQ(got, "{\"s\":\"a\\\"b\\\\c\\nd\\re\\tf\"}\n");
}

TEST(JsonlExporter, EscapesControlCharactersAsUnicode) {
  const std::string got =
      render_jsonl({"s"}, {Value{std::string("x\x01y\x1f")}});
  EXPECT_EQ(got, "{\"s\":\"x\\u0001y\\u001f\"}\n");
}

TEST(JsonlExporter, EscapesColumnNames) {
  const std::string got =
      render_jsonl({"we\"ird"}, {Value{std::uint64_t{7}}});
  EXPECT_EQ(got, "{\"we\\\"ird\":7}\n");
}

TEST(JsonlExporter, NanSerialisesAsNull) {
  const std::string got = render_jsonl(
      {"d"}, {Value{std::numeric_limits<double>::quiet_NaN()}});
  EXPECT_EQ(got, "{\"d\":null}\n");
}

TEST(JsonlExporter, InfinitiesSerialiseAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(render_jsonl({"d"}, {Value{inf}}), "{\"d\":null}\n");
  EXPECT_EQ(render_jsonl({"d"}, {Value{-inf}}), "{\"d\":null}\n");
}

TEST(CsvExporter, NonFiniteDoublesRenderAsStreamText) {
  // CSV has no null; pin the ostream spellings so downstream parsers see a
  // stable token rather than silently changing bytes.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(render_csv({"d"}, {Value{inf}}), "d\ninf\n");
  EXPECT_EQ(render_csv({"d"}, {Value{-inf}}), "d\n-inf\n");
  const std::string nan_row = render_csv(
      {"d"}, {Value{std::numeric_limits<double>::quiet_NaN()}});
  EXPECT_TRUE(nan_row == "d\nnan\n" || nan_row == "d\n-nan\n") << nan_row;
}

TEST(CsvExporter, QuotesCarriageReturnsInLabels) {
  const std::string got =
      render_csv({"name"}, {Value{std::string("line1\r\nline2")}});
  EXPECT_EQ(got, "name\n\"line1\r\nline2\"\n");
}

}  // namespace
}  // namespace vulcan::obs
