#pragma once

/// \file csr.hpp
/// Compressed sparse row matrix: the workhorse storage for every solver in
/// the library. Immutable-by-convention after construction (values may be
/// rescaled in place via friend utilities in scaling.cpp).

#include <span>
#include <vector>

#include "sparse/types.hpp"

namespace dsouth::sparse {

/// CSR sparse matrix. Column indices within each row are sorted ascending
/// (guaranteed by CooBuilder::to_csr and validated by `validate()`).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Takes ownership of raw CSR arrays. row_ptr.size() == rows + 1.
  CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<value_t> values);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(col_idx_.size()); }

  std::span<const index_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const value_t> values() const { return values_; }

  /// Column indices / values of row i.
  std::span<const index_t> row_cols(index_t i) const;
  std::span<const value_t> row_vals(index_t i) const;
  index_t row_nnz(index_t i) const;

  /// Value at (i, j), 0 if not stored. O(log row_nnz) binary search.
  value_t at(index_t i, index_t j) const;

  /// Diagonal entries (0 where absent).
  std::vector<value_t> diagonal() const;

  /// y = A x.
  void spmv(std::span<const value_t> x, std::span<value_t> y) const;

  /// y += alpha * A x.
  void spmv_acc(value_t alpha, std::span<const value_t> x,
                std::span<value_t> y) const;

  /// y[rows[i]] += alpha * (A x)_i, where A holds only the rows of a
  /// taller matrix that are listed in `rows` (`rows.size() ==
  /// this->rows()`) and the taller matrix is zero elsewhere. Each listed
  /// row gets the same additions in the same order as spmv_acc with the
  /// taller matrix would give it. For alpha < 0 the whole result is
  /// bit-identical: every other row would only have gained alpha·0 = −0.0,
  /// which leaves any value, −0.0 included, unchanged.
  void spmv_acc_scatter(value_t alpha, std::span<const value_t> x,
                        std::span<const index_t> rows,
                        std::span<value_t> y) const;

  /// r = b - A x.
  void residual(std::span<const value_t> b, std::span<const value_t> x,
                std::span<value_t> r) const;

  /// Explicit transpose (O(nnz)).
  CsrMatrix transpose() const;

  /// Structural + numerical symmetry check: |a_ij - a_ji| <= tol for all
  /// stored entries (entries missing on one side compare against 0).
  bool is_symmetric(value_t tol = 0.0) const;

  /// True if every diagonal entry is stored and nonzero.
  bool has_full_diagonal() const;

  /// Submatrix A(rows_sel, cols_sel) where col_map[j] gives the new column
  /// index of global column j, or -1 if the column is dropped. Used by the
  /// distributed layout to cut subdomain diagonal and off-diagonal blocks.
  CsrMatrix extract(std::span<const index_t> rows_sel,
                    std::span<const index_t> col_map, index_t new_cols) const;

  /// Internal consistency check (sorted columns, in-range indices,
  /// monotone row_ptr). Used by tests and after deserialization.
  bool validate() const;

  /// Mutable access for in-place rescaling (scaling.cpp) — deliberately
  /// narrow: structure cannot be changed, only values.
  std::span<value_t> mutable_values() { return values_; }

 private:
  index_t rows_ = 0, cols_ = 0;
  std::vector<index_t> row_ptr_;
  std::vector<index_t> col_idx_;
  std::vector<value_t> values_;
};

}  // namespace dsouth::sparse
