#pragma once

/// \file subdomain.hpp
/// Local subdomain kernels shared by the distributed solvers, re-exported
/// from the batched kernels layer (kernels/kernels.hpp) where they now
/// live. All paper experiments relax a subdomain with exactly one
/// Gauss–Seidel sweep ("when a process updates, a single Gauss-Seidel
/// sweep is carried out on the subdomain", §4.2); the sweep works purely
/// on the locally-exact residual, so no ghost copy of x is ever needed.

#include <span>

#include "dist/layout.hpp"
#include "kernels/kernels.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace dsouth::dist {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

/// One Gauss–Seidel sweep over rank rd's local block (kernels::gs_sweep,
/// reading the diagonal the layout cached).
inline double local_gauss_seidel_sweep(const RankData& rd,
                                       std::span<value_t> x,
                                       std::span<value_t> r) {
  return kernels::gs_sweep(rd.a_local, rd.a_local_diag, x, r);
}

/// Squared 2-norm of the local residual (kernels::norm_sq).
inline value_t local_norm_sq(std::span<const value_t> r) {
  return kernels::norm_sq(r);
}

}  // namespace dsouth::dist
