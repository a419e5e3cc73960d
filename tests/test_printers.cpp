#include "experiments/printers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

namespace frontier {
namespace {

TEST(TextTable, AlignsColumnsAndPads) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b"});  // short row padded
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  // Row count: header + separator + 2 rows = 4 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(FormatNumber, SignificantDigits) {
  EXPECT_EQ(format_number(0.012345, 3), "0.0123");
  EXPECT_EQ(format_number(1.0), "1");
}

TEST(FormatPercent, RendersPercentage) {
  EXPECT_EQ(format_percent(0.072), "7.2%");
  EXPECT_EQ(format_percent(7.52), "752%");
}

TEST(PrintCurves, EmitsXAndSeriesColumns) {
  std::ostringstream os;
  const std::vector<std::uint32_t> xs{1, 2, 5};
  const std::vector<std::string> names{"fs", "srw"};
  const std::vector<std::vector<double>> series{
      {0.0, 0.1, 0.2, 0.0, 0.0, 0.5}, {0.0, 0.3, 0.4}};
  print_curves(os, "degree", xs, names, series);
  const std::string out = os.str();
  EXPECT_NE(out.find("degree"), std::string::npos);
  EXPECT_NE(out.find("fs"), std::string::npos);
  EXPECT_NE(out.find("0.5"), std::string::npos);  // x=5 of series fs
}

TEST(PrintBanner, ContainsTitle) {
  std::ostringstream os;
  print_banner(os, "Figure 5");
  EXPECT_NE(os.str().find("== Figure 5 =="), std::string::npos);
}

}  // namespace
}  // namespace frontier
