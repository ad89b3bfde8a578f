// metrics: streaming stats, full-sample stats (Table I statistic set),
// histogram, label counter, and table/CSV rendering.

#include <gtest/gtest.h>

#include <cmath>

#include "metrics/stats.hpp"
#include "metrics/table.hpp"

namespace exasim {
namespace {

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);  // Population stddev of this classic set.
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sample_variance(), 0.0);
}

TEST(SampleStats, TableOneStatisticSet) {
  // min/max/mean/median/mode/stddev — exactly Table I's fields.
  SampleStats s;
  for (double v : {1.0, 4.0, 4.0, 4.0, 17.0, 21.0, 98.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 98.0);
  EXPECT_NEAR(s.mean(), 21.2857, 1e-3);
  EXPECT_DOUBLE_EQ(s.median(), 4.0);
  EXPECT_DOUBLE_EQ(s.mode(), 4.0);
  EXPECT_GT(s.stddev(), 0.0);
}

TEST(SampleStats, MedianInterpolatesEvenCount) {
  SampleStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(SampleStats, ModeTieBreaksSmallest) {
  SampleStats s;
  for (double v : {5.0, 5.0, 2.0, 2.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mode(), 2.0);
}

TEST(SampleStats, PercentileEdges) {
  SampleStats s;
  for (int i = 0; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
}

TEST(SampleStats, SampleStddevMatchesFormula) {
  SampleStats s;
  for (double v : {2.0, 4.0, 6.0}) s.add(v);
  // Sample variance = ((2-4)^2 + 0 + (6-4)^2) / (3-1) = 4.
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
}

TEST(Histogram, BinsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(2), 6.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(LabelCounter, CountsAndTotals) {
  LabelCounter c;
  c.add("halo");
  c.add("halo", 2);
  c.add("barrier");
  EXPECT_EQ(c.count("halo"), 3u);
  EXPECT_EQ(c.count("barrier"), 1u);
  EXPECT_EQ(c.count("missing"), 0u);
  EXPECT_EQ(c.total(), 4u);
}

TEST(TablePrinter, RendersAlignedRows) {
  TablePrinter t({"MTTF_s", "C", "E2"});
  t.add_row({"6000", "500", "7957"});
  t.add_row({"3000", "125", "7948"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("MTTF_s"), std::string::npos);
  EXPECT_NE(s.find("7948"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TablePrinter, RejectsWidthMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

TEST(TablePrinter, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::integer(-42), "-42");
}

TEST(TablePrinter, RendersTextCsvAndJsonFromOneTable) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({R"(quo"te)", "2\n3"});
  EXPECT_EQ(t.to_string(),
            "  name  value\n"
            "-------------\n"
            " alpha      1\n"
            "quo\"te    2\n3\n");
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\nquo\"te,2\n3\n");
  EXPECT_EQ(t.to_json(),
            "[\n  {\"name\": \"alpha\", \"value\": \"1\"},\n"
            "  {\"name\": \"quo\\\"te\", \"value\": \"2\\n3\"}\n]\n");

  const TablePrinter empty({"x", "y"});
  EXPECT_EQ(empty.to_csv(), "x,y\n");
  EXPECT_EQ(empty.to_json(), "[\n]\n");
}

TEST(JsonEscape, QuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

}  // namespace
}  // namespace exasim
