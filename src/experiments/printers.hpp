// Text rendering of experiment output: aligned tables and x/series curves,
// matching the rows and series the paper's tables and figures report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace frontier {

/// Simple aligned table: header row + string cells.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed significant digits ("0.0123", "1.8e-05").
[[nodiscard]] std::string format_number(double value, int significant = 4);

/// Formats as a percentage ("7.2%").
[[nodiscard]] std::string format_percent(double fraction, int significant = 3);

/// Prints a named curve set: one x column and one column per series, with
/// rows restricted to the given x values. Series shorter than the x range
/// print blanks. This is the textual equivalent of the paper's log-log
/// figure series.
void print_curves(std::ostream& os, const std::string& x_name,
                  std::span<const std::uint32_t> xs,
                  std::span<const std::string> series_names,
                  std::span<const std::vector<double>> series);

/// Prints a figure/table banner ("== Figure 5: ... ==").
void print_banner(std::ostream& os, const std::string& title);

}  // namespace frontier
