#include "kernels/kernels.hpp"

#include "util/error.hpp"

namespace dsouth::kernels {

double gs_sweep(const CsrMatrix& a_local, std::span<value_t> x,
                std::span<value_t> r) {
  return gs_sweep(a_local, a_local.diagonal(), x, r);
}

double gs_sweep(const CsrMatrix& a_local, std::span<const value_t> diag,
                std::span<value_t> x, std::span<value_t> r) {
  const index_t m = a_local.rows();
  DSOUTH_CHECK(diag.size() == static_cast<std::size_t>(m));
  DSOUTH_CHECK(x.size() == static_cast<std::size_t>(m));
  DSOUTH_CHECK(r.size() == static_cast<std::size_t>(m));
  auto row_ptr = a_local.row_ptr();
  auto col_idx = a_local.col_idx();
  auto vals = a_local.values();
  for (index_t i = 0; i < m; ++i) {
    const value_t aii = diag[static_cast<std::size_t>(i)];
    DSOUTH_ASSERT(aii != 0.0);
    const value_t delta = r[static_cast<std::size_t>(i)] / aii;
    if (delta == 0.0) continue;
    x[static_cast<std::size_t>(i)] += delta;
    for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      r[static_cast<std::size_t>(col_idx[k])] -= vals[k] * delta;
    }
    // Exact single-equation solve: pin the diagonal update.
    r[static_cast<std::size_t>(i)] = 0.0;
  }
  return 2.0 * static_cast<double>(a_local.nnz()) +
         2.0 * static_cast<double>(m);
}

double gs_sweep_batch(const CsrMatrix& a_local, std::size_t lanes,
                      std::span<value_t> x, std::span<value_t> r) {
  DSOUTH_CHECK(lanes >= 1);
  if (lanes == 1) return gs_sweep(a_local, x, r);
  const index_t m = a_local.rows();
  DSOUTH_CHECK(x.size() == static_cast<std::size_t>(m) * lanes);
  DSOUTH_CHECK(r.size() == static_cast<std::size_t>(m) * lanes);
  auto row_ptr = a_local.row_ptr();
  auto col_idx = a_local.col_idx();
  auto vals = a_local.values();
  // Per-row lane deltas on the stack; 64 covers every batch size the
  // benches use, and larger batches are rejected rather than allocated.
  constexpr std::size_t kMaxStackLanes = 64;
  value_t delta_buf[kMaxStackLanes];
  DSOUTH_CHECK_MSG(lanes <= kMaxStackLanes,
                   "gs_sweep_batch supports at most " << kMaxStackLanes
                                                      << " lanes per call");
  std::span<value_t> delta(delta_buf, lanes);
  for (index_t i = 0; i < m; ++i) {
    const value_t aii = a_local.at(i, i);
    DSOUTH_ASSERT(aii != 0.0);
    value_t* xi = x.data() + static_cast<std::size_t>(i) * lanes;
    value_t* ri = r.data() + static_cast<std::size_t>(i) * lanes;
    bool all_active = true;
    for (std::size_t l = 0; l < lanes; ++l) {
      delta[l] = ri[l] / aii;
      all_active &= (delta[l] != 0.0);
    }
    if (all_active) {
      // Straight-line SoA row update: every inner loop is unit-stride over
      // the lanes and carries no cross-lane dependence, so the compiler
      // vectorizes it. Per lane the operation order is exactly the scalar
      // sweep's: delta, CSR-order scatter, pin.
      for (std::size_t l = 0; l < lanes; ++l) xi[l] += delta[l];
      for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        const value_t a = vals[k];
        value_t* rj = r.data() + static_cast<std::size_t>(col_idx[k]) * lanes;
        for (std::size_t l = 0; l < lanes; ++l) rj[l] -= a * delta[l];
      }
      for (std::size_t l = 0; l < lanes; ++l) ri[l] = 0.0;
      continue;
    }
    // Mixed row: some lane has delta == 0.0 and must be skipped outright
    // (see the header: a masked multiply would flip -0.0 residuals).
    for (std::size_t l = 0; l < lanes; ++l) {
      const value_t d = delta[l];
      if (d == 0.0) continue;
      xi[l] += d;
      for (index_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        r[static_cast<std::size_t>(col_idx[k]) * lanes + l] -= vals[k] * d;
      }
      ri[l] = 0.0;
    }
  }
  return static_cast<double>(lanes) *
         (2.0 * static_cast<double>(a_local.nnz()) +
          2.0 * static_cast<double>(m));
}

value_t norm_sq(std::span<const value_t> r) {
  value_t s = 0.0;
  for (value_t v : r) s += v * v;
  return s;
}

void norm_sq_batch(std::span<const value_t> r, std::size_t lanes,
                   std::span<value_t> out) {
  DSOUTH_CHECK(lanes >= 1);
  DSOUTH_CHECK(out.size() == lanes);
  DSOUTH_CHECK(r.size() % lanes == 0);
  const std::size_t rows = r.size() / lanes;
  for (std::size_t i = 0; i < rows; ++i) {
    const value_t* ri = r.data() + i * lanes;
    for (std::size_t l = 0; l < lanes; ++l) out[l] += ri[l] * ri[l];
  }
}

}  // namespace dsouth::kernels
