#pragma once

/// \file stencils.hpp
/// Structured-grid SPD matrix generators. These stand in for the paper's
/// SuiteSparse problems (see DESIGN.md §5) and for the 2-D Poisson grids in
/// the multigrid experiment (§4.1 of the paper).
///
/// All generators produce symmetric positive definite matrices assembled as
/// variable-coefficient diffusion operators: the weight of the edge between
/// cells a and b is the harmonic mean of the cell coefficients times a
/// per-direction anisotropy factor, and the diagonal is the sum of incident
/// edge weights plus an optional shift. With default options every generator
/// reduces to the classical constant-coefficient stencil.

#include <cstdint>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

namespace dsouth::sparse {

/// Options shared by the stencil generators.
struct StencilOptions {
  /// Anisotropy multipliers applied to edges with a y / z component
  /// (eps < 1 weakens coupling in that direction).
  double eps_y = 1.0;
  double eps_z = 1.0;
  /// Checkerboard coefficient contrast: blocks of `jump_block` cells
  /// alternate between coefficient 1 and `jump_contrast`.
  double jump_contrast = 1.0;
  index_t jump_block = 8;
  /// Added to every diagonal entry (keeps shifted operators strictly
  /// positive definite; 0 keeps the pure Neumann-free Dirichlet operator).
  double diag_shift = 0.0;
  /// Multiplies every off-diagonal entry after assembly, widening the
  /// spectrum: a unit-diagonal-scaled SPD matrix diverges under point
  /// Jacobi iff λ_max ≥ 2, and boost > 1 pushes λ_max past 2 while the
  /// diagonal shift keeps the matrix SPD. Used by proxies that must make
  /// small-block Jacobi diverge (DESIGN.md §5).
  double offdiag_boost = 1.0;
};

/// 2-D Poisson, 5-point stencil, Dirichlet boundary, nx*ny unknowns.
CsrMatrix poisson2d_5pt(index_t nx, index_t ny,
                        const StencilOptions& opt = {});

/// 2-D, 9-point (8 neighbors), Dirichlet.
CsrMatrix poisson2d_9pt(index_t nx, index_t ny,
                        const StencilOptions& opt = {});

/// 3-D Poisson, 7-point stencil, Dirichlet, nx*ny*nz unknowns.
CsrMatrix poisson3d_7pt(index_t nx, index_t ny, index_t nz,
                        const StencilOptions& opt = {});

/// Random sparse SPD matrix on a random regular-ish graph: ~`nnz_per_row`
/// off-diagonal entries per row, negative off-diagonal values, diagonal set
/// to `dominance` × (sum of |off-diagonals| in the row). dominance > 1
/// gives strict diagonal dominance (hence SPD).
/// Test-only: kept for the RandomSpd tests (tests/test_sparse_stencils.cpp).
CsrMatrix random_spd(index_t n, index_t nnz_per_row, double dominance,
                     std::uint64_t seed);

/// Largest-eigenvalue estimate by power iteration (symmetric matrices).
/// Used to characterize Jacobi convergence: after unit-diagonal scaling,
/// point Jacobi converges iff λ_max(A) < 2.
value_t lambda_max_estimate(const CsrMatrix& a, int iterations = 100,
                            std::uint64_t seed = 12345);

}  // namespace dsouth::sparse
