#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dsouth::sparse {

CsrMatrix::CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
                     std::vector<index_t> col_idx, std::vector<value_t> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  DSOUTH_CHECK(rows_ >= 0 && cols_ >= 0);
  DSOUTH_CHECK(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1);
  DSOUTH_CHECK(col_idx_.size() == values_.size());
  DSOUTH_CHECK(row_ptr_.back() == static_cast<index_t>(col_idx_.size()));
}

std::span<const index_t> CsrMatrix::row_cols(index_t i) const {
  DSOUTH_ASSERT(i >= 0 && i < rows_);
  auto b = static_cast<std::size_t>(row_ptr_[i]);
  auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
  return {col_idx_.data() + b, e - b};
}

std::span<const value_t> CsrMatrix::row_vals(index_t i) const {
  DSOUTH_ASSERT(i >= 0 && i < rows_);
  auto b = static_cast<std::size_t>(row_ptr_[i]);
  auto e = static_cast<std::size_t>(row_ptr_[i + 1]);
  return {values_.data() + b, e - b};
}

index_t CsrMatrix::row_nnz(index_t i) const {
  DSOUTH_ASSERT(i >= 0 && i < rows_);
  return row_ptr_[i + 1] - row_ptr_[i];
}

value_t CsrMatrix::at(index_t i, index_t j) const {
  auto cols = row_cols(i);
  auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(row_ptr_[i]) +
                 static_cast<std::size_t>(it - cols.begin())];
}

std::vector<value_t> CsrMatrix::diagonal() const {
  std::vector<value_t> d(static_cast<std::size_t>(rows_), 0.0);
  for (index_t i = 0; i < rows_; ++i) d[static_cast<std::size_t>(i)] = at(i, i);
  return d;
}

void CsrMatrix::spmv(std::span<const value_t> x, std::span<value_t> y) const {
  DSOUTH_CHECK(x.size() == static_cast<std::size_t>(cols_));
  DSOUTH_CHECK(y.size() == static_cast<std::size_t>(rows_));
  for (index_t i = 0; i < rows_; ++i) {
    value_t sum = 0.0;
    const index_t b = row_ptr_[i], e = row_ptr_[i + 1];
    for (index_t k = b; k < e; ++k) sum += values_[k] * x[col_idx_[k]];
    y[i] = sum;
  }
}

void CsrMatrix::spmv_acc(value_t alpha, std::span<const value_t> x,
                         std::span<value_t> y) const {
  DSOUTH_CHECK(x.size() == static_cast<std::size_t>(cols_));
  DSOUTH_CHECK(y.size() == static_cast<std::size_t>(rows_));
  for (index_t i = 0; i < rows_; ++i) {
    value_t sum = 0.0;
    const index_t b = row_ptr_[i], e = row_ptr_[i + 1];
    for (index_t k = b; k < e; ++k) sum += values_[k] * x[col_idx_[k]];
    y[i] += alpha * sum;
  }
}

void CsrMatrix::spmv_acc_scatter(value_t alpha, std::span<const value_t> x,
                                 std::span<const index_t> rows,
                                 std::span<value_t> y) const {
  DSOUTH_CHECK(x.size() == static_cast<std::size_t>(cols_));
  DSOUTH_CHECK(rows.size() == static_cast<std::size_t>(rows_));
  for (index_t i = 0; i < rows_; ++i) {
    value_t sum = 0.0;
    const index_t b = row_ptr_[i], e = row_ptr_[i + 1];
    for (index_t k = b; k < e; ++k) sum += values_[k] * x[col_idx_[k]];
    const auto yi =
        static_cast<std::size_t>(rows[static_cast<std::size_t>(i)]);
    DSOUTH_ASSERT(yi < y.size());
    y[yi] += alpha * sum;
  }
}

void CsrMatrix::residual(std::span<const value_t> b, std::span<const value_t> x,
                         std::span<value_t> r) const {
  DSOUTH_CHECK(b.size() == static_cast<std::size_t>(rows_));
  std::copy(b.begin(), b.end(), r.begin());
  spmv_acc(-1.0, x, r);
}

CsrMatrix CsrMatrix::transpose() const {
  std::vector<index_t> t_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  for (index_t j : col_idx_) ++t_ptr[static_cast<std::size_t>(j) + 1];
  for (index_t j = 0; j < cols_; ++j) {
    t_ptr[static_cast<std::size_t>(j) + 1] += t_ptr[static_cast<std::size_t>(j)];
  }
  std::vector<index_t> t_col(col_idx_.size());
  std::vector<value_t> t_val(values_.size());
  std::vector<index_t> cursor(t_ptr.begin(), t_ptr.end() - 1);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      index_t j = col_idx_[k];
      index_t slot = cursor[static_cast<std::size_t>(j)]++;
      t_col[slot] = i;   // rows visited ascending -> sorted columns
      t_val[slot] = values_[k];
    }
  }
  return CsrMatrix(cols_, rows_, std::move(t_ptr), std::move(t_col),
                   std::move(t_val));
}

bool CsrMatrix::is_symmetric(value_t tol) const {
  if (rows_ != cols_) return false;
  for (index_t i = 0; i < rows_; ++i) {
    auto cols = row_cols(i);
    auto vals = row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (std::abs(vals[k] - at(cols[k], i)) > tol) return false;
    }
  }
  return true;
}

bool CsrMatrix::has_full_diagonal() const {
  if (rows_ != cols_) return false;
  for (index_t i = 0; i < rows_; ++i) {
    if (at(i, i) == 0.0) return false;
  }
  return true;
}

CsrMatrix CsrMatrix::extract(std::span<const index_t> rows_sel,
                             std::span<const index_t> col_map,
                             index_t new_cols) const {
  DSOUTH_CHECK(col_map.size() == static_cast<std::size_t>(cols_));
  std::vector<index_t> new_ptr(rows_sel.size() + 1, 0);
  std::vector<index_t> new_col;
  std::vector<value_t> new_val;
  for (std::size_t out_i = 0; out_i < rows_sel.size(); ++out_i) {
    index_t i = rows_sel[out_i];
    DSOUTH_CHECK(i >= 0 && i < rows_);
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      index_t nj = col_map[static_cast<std::size_t>(col_idx_[k])];
      if (nj < 0) continue;
      DSOUTH_ASSERT(nj < new_cols);
      new_col.push_back(nj);
      new_val.push_back(values_[k]);
    }
    new_ptr[out_i + 1] = static_cast<index_t>(new_col.size());
  }
  // Column maps are monotone within a row only if col_map is monotone on
  // stored columns; sort each row to restore the CSR invariant.
  for (std::size_t out_i = 0; out_i < rows_sel.size(); ++out_i) {
    auto b = static_cast<std::size_t>(new_ptr[out_i]);
    auto e = static_cast<std::size_t>(new_ptr[out_i + 1]);
    // insertion sort: rows are short and usually already sorted
    for (std::size_t k = b + 1; k < e; ++k) {
      index_t c = new_col[k];
      value_t v = new_val[k];
      std::size_t q = k;
      while (q > b && new_col[q - 1] > c) {
        new_col[q] = new_col[q - 1];
        new_val[q] = new_val[q - 1];
        --q;
      }
      new_col[q] = c;
      new_val[q] = v;
    }
  }
  return CsrMatrix(static_cast<index_t>(rows_sel.size()), new_cols,
                   std::move(new_ptr), std::move(new_col), std::move(new_val));
}

bool CsrMatrix::validate() const {
  if (row_ptr_.size() != static_cast<std::size_t>(rows_) + 1) return false;
  if (row_ptr_[0] != 0) return false;
  for (index_t i = 0; i < rows_; ++i) {
    if (row_ptr_[i + 1] < row_ptr_[i]) return false;
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      if (col_idx_[k] < 0 || col_idx_[k] >= cols_) return false;
      if (k > row_ptr_[i] && col_idx_[k] <= col_idx_[k - 1]) return false;
    }
  }
  return row_ptr_.back() == static_cast<index_t>(col_idx_.size());
}

}  // namespace dsouth::sparse
