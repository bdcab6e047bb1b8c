#include "sparse/stencils.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/vec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::sparse {

namespace {

/// Checkerboard coefficient for a cell (3-D; use iz = 0 for 2-D).
double cell_coeff(const StencilOptions& opt, index_t ix, index_t iy,
                  index_t iz) {
  if (opt.jump_contrast == 1.0) return 1.0;
  DSOUTH_CHECK(opt.jump_block > 0);
  index_t parity = (ix / opt.jump_block) + (iy / opt.jump_block) +
                   (iz / opt.jump_block);
  return (parity % 2 == 0) ? 1.0 : opt.jump_contrast;
}

double harmonic(double a, double b) { return 2.0 * a * b / (a + b); }

/// Generic dim-agnostic assembler: `neighbors` enumerates the stencil
/// offsets of the "upper" half (each edge assembled once, mirrored).
struct Offset3 {
  index_t dx, dy, dz;
};

CsrMatrix assemble(index_t nx, index_t ny, index_t nz,
                   const std::vector<Offset3>& half_stencil,
                   const StencilOptions& opt) {
  DSOUTH_CHECK(nx > 0 && ny > 0 && nz > 0);
  DSOUTH_CHECK(opt.offdiag_boost > 0.0);
  const index_t n = nx * ny * nz;
  auto id = [&](index_t ix, index_t iy, index_t iz) {
    return (iz * ny + iy) * nx + ix;
  };
  CooBuilder coo(n, n);
  std::vector<double> diag(static_cast<std::size_t>(n), opt.diag_shift);
  for (index_t iz = 0; iz < nz; ++iz) {
    for (index_t iy = 0; iy < ny; ++iy) {
      for (index_t ix = 0; ix < nx; ++ix) {
        const index_t a = id(ix, iy, iz);
        const double ka = cell_coeff(opt, ix, iy, iz);
        for (const auto& off : half_stencil) {
          const index_t jx = ix + off.dx, jy = iy + off.dy, jz = iz + off.dz;
          // Dirichlet: off-grid neighbors contribute only to the diagonal.
          double aniso = 1.0;
          if (off.dy != 0) aniso *= opt.eps_y;
          if (off.dz != 0) aniso *= opt.eps_z;
          if (jx < 0 || jx >= nx || jy < 0 || jy >= ny || jz < 0 || jz >= nz) {
            // Boundary edge: couples to the Dirichlet boundary; weight uses
            // the cell's own coefficient.
            diag[static_cast<std::size_t>(a)] += ka * aniso;
            continue;
          }
          const index_t b = id(jx, jy, jz);
          const double w = harmonic(ka, cell_coeff(opt, jx, jy, jz)) * aniso;
          coo.add_sym(a, b, -w * opt.offdiag_boost);
          diag[static_cast<std::size_t>(a)] += w;
          diag[static_cast<std::size_t>(b)] += w;
        }
        // "Lower" half of the boundary edges (the mirrored offsets that fall
        // off the grid also contribute to the diagonal under Dirichlet).
        for (const auto& off : half_stencil) {
          const index_t jx = ix - off.dx, jy = iy - off.dy, jz = iz - off.dz;
          if (jx < 0 || jx >= nx || jy < 0 || jy >= ny || jz < 0 || jz >= nz) {
            double aniso = 1.0;
            if (off.dy != 0) aniso *= opt.eps_y;
            if (off.dz != 0) aniso *= opt.eps_z;
            diag[static_cast<std::size_t>(a)] += ka * aniso;
          }
        }
      }
    }
  }
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, diag[static_cast<std::size_t>(i)]);
  }
  return coo.to_csr();
}

}  // namespace

CsrMatrix poisson2d_5pt(index_t nx, index_t ny, const StencilOptions& opt) {
  return assemble(nx, ny, 1, {{1, 0, 0}, {0, 1, 0}}, opt);
}

CsrMatrix poisson2d_9pt(index_t nx, index_t ny, const StencilOptions& opt) {
  return assemble(nx, ny, 1, {{1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {-1, 1, 0}},
                  opt);
}

CsrMatrix poisson3d_7pt(index_t nx, index_t ny, index_t nz,
                        const StencilOptions& opt) {
  return assemble(nx, ny, nz, {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, opt);
}

CsrMatrix random_spd(index_t n, index_t nnz_per_row, double dominance,
                     std::uint64_t seed) {
  DSOUTH_CHECK(n > 0 && nnz_per_row > 0 && nnz_per_row < n);
  DSOUTH_CHECK(dominance >= 1.0);
  util::Rng rng(seed);
  // Build an undirected random graph with ~nnz_per_row/2 edges added per
  // vertex (each edge contributes to two rows).
  std::set<std::pair<index_t, index_t>> edges;
  const index_t edges_per_vertex = std::max<index_t>(1, nnz_per_row / 2);
  for (index_t i = 0; i < n; ++i) {
    for (index_t e = 0; e < edges_per_vertex; ++e) {
      index_t j = static_cast<index_t>(rng.next_below(
          static_cast<std::uint64_t>(n)));
      if (j == i) continue;
      edges.insert({std::min(i, j), std::max(i, j)});
    }
  }
  CooBuilder coo(n, n);
  std::vector<double> row_abs(static_cast<std::size_t>(n), 0.0);
  for (const auto& [i, j] : edges) {
    double v = -rng.uniform(0.1, 1.0);
    coo.add_sym(i, j, v);
    row_abs[static_cast<std::size_t>(i)] += std::abs(v);
    row_abs[static_cast<std::size_t>(j)] += std::abs(v);
  }
  for (index_t i = 0; i < n; ++i) {
    // Isolated vertices still get a positive diagonal.
    coo.add(i, i, dominance * row_abs[static_cast<std::size_t>(i)] + 0.01);
  }
  return coo.to_csr();
}

value_t lambda_max_estimate(const CsrMatrix& a, int iterations,
                            std::uint64_t seed) {
  DSOUTH_CHECK(a.rows() == a.cols());
  DSOUTH_CHECK(a.rows() > 0);
  util::Rng rng(seed);
  std::vector<value_t> v(static_cast<std::size_t>(a.rows()));
  rng.fill_uniform(v, -1.0, 1.0);
  std::vector<value_t> w(v.size());
  value_t lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    value_t nv = norm2(v);
    DSOUTH_CHECK(nv > 0.0);
    scale(1.0 / nv, v);
    a.spmv(v, w);
    lambda = dot(v, w);
    std::swap(v, w);
  }
  return lambda;
}

}  // namespace dsouth::sparse
