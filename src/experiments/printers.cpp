#include "experiments/printers.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace frontier {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left
         << std::setw(static_cast<int>(width[c])) << row[c];
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string format_number(double value, int significant) {
  std::ostringstream os;
  os << std::setprecision(significant) << value;
  return os.str();
}

std::string format_percent(double fraction, int significant) {
  std::ostringstream os;
  os << std::setprecision(significant) << fraction * 100.0 << '%';
  return os.str();
}

void print_curves(std::ostream& os, const std::string& x_name,
                  std::span<const std::uint32_t> xs,
                  std::span<const std::string> series_names,
                  std::span<const std::vector<double>> series) {
  std::vector<std::string> headers;
  headers.push_back(x_name);
  for (const auto& name : series_names) headers.push_back(name);
  TextTable table(std::move(headers));
  for (std::uint32_t x : xs) {
    std::vector<std::string> row;
    row.push_back(std::to_string(x));
    for (const auto& s : series) {
      row.push_back(x < s.size() && s[x] > 0.0 ? format_number(s[x]) : "");
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << "== " << title << " ==\n\n";
}

}  // namespace frontier
