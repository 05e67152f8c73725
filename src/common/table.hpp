// Column-aligned plain-text and CSV table rendering.
//
// quartz_paper reproduces the paper's tables and figure series; a
// shared renderer keeps its output uniform and machine-parseable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace quartz {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a row; must match the header width.
  void add_row(std::vector<std::string> row);

  /// Convenience: convert every cell via to_string-like formatting.
  template <typename... Cells>
  void add(const Cells&... cells) {
    add_row({format_cell(cells)...});
  }

  std::size_t rows() const { return rows_.size(); }

  /// Column names / cell data, for structured exporters.
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& data() const { return rows_; }

  /// Render with aligned columns and a header rule.
  std::string to_text() const;
  /// Render as RFC-4180-ish CSV (quotes cells containing commas/quotes).
  std::string to_csv() const;

 private:
  static std::string format_cell(const std::string& s) { return s; }
  static std::string format_cell(const char* s) { return s; }
  static std::string format_cell(double v);
  static std::string format_cell(float v) { return format_cell(static_cast<double>(v)); }
  template <typename Int>
    requires std::is_integral_v<Int>
  static std::string format_cell(Int v) {
    return std::to_string(v);
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace quartz
