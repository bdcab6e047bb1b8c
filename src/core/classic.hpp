#pragma once

/// \file classic.hpp
/// The classical stationary baselines of the paper's Figure 2: Jacobi,
/// Gauss–Seidel, SOR, and Multicolor Gauss–Seidel. All operate through the
/// shared ScalarRelaxationEngine and record ConvergenceHistory in the units
/// the paper plots (cumulative relaxations; parallel-step markers).

#include <span>

#include "core/history.hpp"
#include "core/scalar_engine.hpp"
#include "graph/coloring.hpp"
#include "sparse/csr.hpp"

namespace dsouth::core {

/// Options shared by the scalar runners.
struct ScalarRunOptions {
  /// Run length in sweeps (n relaxations each). Figure 2 uses 3.
  index_t max_sweeps = 3;
  /// Stop early when ‖r‖₂ falls to this value (0 disables).
  value_t target_residual = 0.0;
  /// Sequential methods: record a point after every relaxation (true, the
  /// Figure-2 resolution) or only at sweep boundaries.
  bool record_each_relaxation = true;
  /// Damping factor for Jacobi/GS (1 = undamped); SOR has its own ω.
  value_t omega = 1.0;
};

/// (Point) Jacobi: every sweep relaxes all n rows simultaneously.
/// One sweep == one parallel step.
ConvergenceHistory run_jacobi(const CsrMatrix& a, std::span<const value_t> b,
                              std::span<const value_t> x0,
                              const ScalarRunOptions& opt = {});

/// Gauss–Seidel in natural row order. Each relaxation is a parallel step
/// (the method is sequential).
ConvergenceHistory run_gauss_seidel(const CsrMatrix& a,
                                    std::span<const value_t> b,
                                    std::span<const value_t> x0,
                                    const ScalarRunOptions& opt = {});

/// SOR: Gauss–Seidel with relaxation factor ω in (0, 2).
/// Test-only: Sor.* and CrossValidation.SorWithUnitOmegaIsGaussSeidel.
ConvergenceHistory run_sor(const CsrMatrix& a, std::span<const value_t> b,
                           std::span<const value_t> x0, value_t omega,
                           const ScalarRunOptions& opt = {});

/// Multicolor Gauss–Seidel: one parallel step per color (the paper's
/// comparison point for parallel-step counts). If `coloring` is null, a
/// BFS greedy coloring is computed (the paper's choice).
ConvergenceHistory run_multicolor_gs(const CsrMatrix& a,
                                     std::span<const value_t> b,
                                     std::span<const value_t> x0,
                                     const ScalarRunOptions& opt = {},
                                     const graph::Coloring* coloring = nullptr);

}  // namespace dsouth::core
