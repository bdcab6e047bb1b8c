#pragma once

/// \file dense.hpp
/// Small dense matrices and a Cholesky factorization. Used for the exact
/// coarse-grid solve in the multigrid hierarchy (the paper solves the 3x3
/// coarsest grid exactly) and as a reference solver in tests.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace dsouth::sparse {

/// Row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(index_t rows, index_t cols);

  static DenseMatrix from_csr(const CsrMatrix& a);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  value_t& operator()(index_t i, index_t j);
  value_t operator()(index_t i, index_t j) const;

  void matvec(std::span<const value_t> x, std::span<value_t> y) const;

 private:
  index_t rows_ = 0, cols_ = 0;
  std::vector<value_t> data_;
};

/// Cholesky factorization A = L Lᵀ of an SPD matrix; throws CheckError if a
/// non-positive pivot is encountered (matrix not SPD to working precision).
class DenseCholesky {
 public:
  /// Test-only oracle: the DenseCholesky.* tests (AMG uses the CSR form).
  explicit DenseCholesky(const DenseMatrix& a);
  explicit DenseCholesky(const CsrMatrix& a);

  index_t order() const { return l_.rows(); }

  /// Solve A x = b.
  void solve(std::span<const value_t> b, std::span<value_t> x) const;

  /// log-determinant of A (sum of 2*log(l_ii)); handy for SPD sanity tests.
  /// Test-only: DenseCholesky.LogDetMatchesKnown.
  value_t log_det() const;

 private:
  void factor(const DenseMatrix& a);
  DenseMatrix l_;
};

}  // namespace dsouth::sparse
