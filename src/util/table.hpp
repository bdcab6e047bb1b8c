#pragma once

/// \file table.hpp
/// ASCII table formatting for the benchmark harnesses. Every table the
/// benches print (Tables 2-4 of the paper and the figure-series dumps) goes
/// through this class so the layout is uniform and alignment is correct.

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace dsouth::util {

/// Column-aligned table with a header row. Cells are strings; numeric
/// helpers format with a fixed precision. A cell may be flagged as "dagger"
/// (the paper's † for methods that failed to reach the target residual).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Start a new row; subsequent cell() calls append to it.
  Table& row();

  Table& cell(const std::string& text);
  Table& cell(double value, int precision = 3);
  Table& cell(std::size_t value);
  /// The paper's † marker for "did not reach the target in 50 steps".
  Table& dagger();

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return headers_.size(); }

  /// Render with single-space-padded columns and a separator rule.
  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared with csv.cpp).
std::string format_double(double value, int precision);

}  // namespace dsouth::util
