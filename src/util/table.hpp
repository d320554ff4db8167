// table.hpp — console tables and CSV emission for the benchmark harness.
//
// Every figure/table bench prints (a) a human-readable aligned table in the
// style of the paper's figures and (b) optionally a CSV file so results can
// be re-plotted.  This keeps formatting out of the experiment code.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace firefly::util {

/// Column-aligned text table with a title, headers and string cells.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& set_headers(std::vector<std::string> headers);
  /// Adds a row; the cell count must match the header count (asserted).
  Table& add_row(std::vector<std::string> cells);

  /// Convenience: format a double with fixed precision.
  static std::string num(double v, int precision = 2);
  /// Convenience: format an integer count.
  static std::string num(std::size_t v);

  /// Render aligned to an ostream (default separator style: spaces + rules).
  void print(std::ostream& os) const;
  /// Render as RFC-4180-ish CSV (no quoting of embedded commas needed here,
  /// but commas in cells are escaped by quoting).
  void write_csv(const std::string& path) const;

  [[nodiscard]] const std::vector<std::string>& headers() const { return headers_; }
  [[nodiscard]] const std::vector<std::vector<std::string>>& row_data() const {
    return rows_;
  }

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace firefly::util
