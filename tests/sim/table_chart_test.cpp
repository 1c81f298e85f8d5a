// Tests for the table / chart renderers.

#include <gtest/gtest.h>

#include <sstream>

#include "sim/chart.hpp"
#include "sim/table.hpp"

namespace mldcs::sim {
namespace {

TEST(TableTest, HeaderAndRowsRender) {
  Table t({"n", "flooding", "skyline"});
  t.add_row({"4", "4.00", "3.10"});
  t.add_numeric_row({8.0, 8.0, 4.9});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("flooding"), std::string::npos);
  EXPECT_NE(s.find("3.10"), std::string::npos);
  EXPECT_NE(s.find("4.90"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b"});
  t.add_row({std::string("only")});
  std::ostringstream os;
  t.print(os);  // must not crash; the missing cell renders empty
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(TableTest, CsvEmissionWithPrefix) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "csv:x,y\ncsv:1,2\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(ChartTest, LineChartContainsLegendAndAxes) {
  const std::vector<Series> series{
      {"flooding", {4, 8, 12}, {4.0, 8.0, 12.0}},
      {"skyline", {4, 8, 12}, {3.0, 4.5, 5.2}},
  };
  std::ostringstream os;
  render_line_chart(os, series, "Figure 5.1", "neighbors", "forwarders");
  const std::string s = os.str();
  EXPECT_NE(s.find("Figure 5.1"), std::string::npos);
  EXPECT_NE(s.find("legend:"), std::string::npos);
  EXPECT_NE(s.find("flooding"), std::string::npos);
  EXPECT_NE(s.find("[*]"), std::string::npos);
  EXPECT_NE(s.find("x: neighbors"), std::string::npos);
}

TEST(ChartTest, EmptySeriesHandled) {
  std::ostringstream os;
  render_line_chart(os, {}, "empty", "x", "y");
  EXPECT_NE(os.str().find("(no data)"), std::string::npos);
}

TEST(ChartTest, HistogramBarsProportional) {
  IntHistogram h;
  for (int i = 0; i < 10; ++i) h.add(3);
  h.add(5);
  std::ostringstream os;
  render_histogram(os, h, "dist", 20);
  const std::string s = os.str();
  EXPECT_NE(s.find("dist"), std::string::npos);
  // Peak bin gets the full bar.
  EXPECT_NE(s.find(std::string(20, '#')), std::string::npos);
}

TEST(ChartTest, HistogramTableAlignsSeveralHistograms) {
  IntHistogram a, b;
  a.add(2);
  a.add(3);
  b.add(3);
  const std::vector<std::string> names{"alg1", "alg2"};
  const std::vector<IntHistogram> hists{a, b};
  std::ostringstream os;
  render_histogram_table(os, names, hists, "Figure 5.2");
  const std::string s = os.str();
  EXPECT_NE(s.find("alg1"), std::string::npos);
  EXPECT_NE(s.find("#fwd"), std::string::npos);
}

}  // namespace
}  // namespace mldcs::sim
