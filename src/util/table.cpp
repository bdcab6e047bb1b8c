#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace dsouth::util {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  DSOUTH_CHECK(!headers_.empty());
}

Table& Table::row() {
  DSOUTH_CHECK_MSG(rows_.empty() || rows_.back().size() == headers_.size(),
                   "previous row has " << rows_.back().size() << " cells, want "
                                       << headers_.size());
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& text) {
  DSOUTH_CHECK(!rows_.empty());
  DSOUTH_CHECK_MSG(rows_.back().size() < headers_.size(), "row overflow");
  rows_.back().push_back(text);
  return *this;
}

Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::cell(std::size_t value) { return cell(std::to_string(value)); }


Table& Table::dagger() { return cell(std::string("†")); }

void Table::print(std::ostream& os) const {
  DSOUTH_CHECK_MSG(rows_.empty() || rows_.back().size() == headers_.size(),
                   "last row incomplete");
  // Display width: '†' is 3 bytes of UTF-8 but 1 column.
  auto width_of = [](const std::string& s) {
    std::size_t w = 0;
    for (unsigned char c : s) {
      if ((c & 0xC0) != 0x80) ++w;  // count non-continuation bytes
    }
    return w;
  };
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = width_of(headers_[c]);
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], width_of(row[c]));
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::size_t pad = widths[c] - width_of(cells[c]);
      if (c) os << "  ";
      // Right-align everything but the first (label) column.
      if (c == 0) {
        os << cells[c] << std::string(pad, ' ');
      } else {
        os << std::string(pad, ' ') << cells[c];
      }
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace dsouth::util
