#include "sparse/stencils.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse/dense.hpp"
#include "sparse/scaling.hpp"
#include "util/error.hpp"

namespace dsouth::sparse {
namespace {

TEST(Poisson2D5pt, ClassicalStencilValues) {
  auto a = poisson2d_5pt(3, 3);
  EXPECT_EQ(a.rows(), 9);
  EXPECT_TRUE(a.is_symmetric(0.0));
  // Interior point (1,1) = row 4: diagonal 4, four -1 neighbors.
  EXPECT_DOUBLE_EQ(a.at(4, 4), 4.0);
  EXPECT_DOUBLE_EQ(a.at(4, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 3), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 5), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 7), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 0), 0.0);  // no diagonal coupling in 5-pt
  // Corner row 0: still diagonal 4 (Dirichlet boundary contributions).
  EXPECT_DOUBLE_EQ(a.at(0, 0), 4.0);
  EXPECT_EQ(a.row_nnz(0), 3);
}

TEST(Poisson2D5pt, IsSpd) {
  auto a = poisson2d_5pt(5, 4);
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(Poisson2D5pt, KnownExtremeEigenvalue) {
  // λ_max = 4 + 2cos(π/(n+1)) + 2cos(π/(n+1)) -> 8 as n grows; for n = 20
  // λ_max = 4 + 4 cos(π/21).
  auto a = poisson2d_5pt(20, 20);
  const double expected = 4.0 + 4.0 * std::cos(M_PI / 21.0);
  EXPECT_NEAR(lambda_max_estimate(a, 300), expected, 1e-3);
}

TEST(Poisson2D9pt, NeighborCount) {
  auto a = poisson2d_9pt(5, 5);
  // Center row has 8 neighbors + diagonal.
  EXPECT_EQ(a.row_nnz(12), 9);
  EXPECT_TRUE(a.is_symmetric(0.0));
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(Poisson3D7pt, StructureAndSpd) {
  auto a = poisson3d_7pt(3, 3, 3);
  EXPECT_EQ(a.rows(), 27);
  // Center of the cube: 6 neighbors + diagonal = 7.
  EXPECT_EQ(a.row_nnz(13), 7);
  EXPECT_DOUBLE_EQ(a.at(13, 13), 6.0);
  EXPECT_TRUE(a.is_symmetric(0.0));
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(Stencils, RowSumsVanishInTheInterior) {
  // Pure Dirichlet diffusion: interior rows (away from the boundary) have
  // zero row sum; boundary rows have positive row sums.
  auto a = poisson3d_7pt(5, 5, 5);
  const index_t center = 2 * 25 + 2 * 5 + 2;
  value_t sum = 0.0;
  for (value_t v : a.row_vals(center)) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-14);
  value_t corner_sum = 0.0;
  for (value_t v : a.row_vals(0)) corner_sum += v;
  EXPECT_GT(corner_sum, 0.0);
}

TEST(Stencils, AnisotropyWeakensDirectionalCoupling) {
  StencilOptions opt;
  opt.eps_y = 0.1;
  auto a = poisson2d_5pt(3, 3, opt);
  // Horizontal neighbor keeps weight 1, vertical is scaled by eps_y.
  EXPECT_DOUBLE_EQ(a.at(4, 3), -1.0);
  EXPECT_DOUBLE_EQ(a.at(4, 1), -0.1);
  EXPECT_TRUE(a.is_symmetric(1e-15));
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(Stencils, JumpCoefficientsUseHarmonicMeans) {
  StencilOptions opt;
  opt.jump_contrast = 100.0;
  opt.jump_block = 2;
  auto a = poisson2d_5pt(4, 4, opt);
  EXPECT_TRUE(a.is_symmetric(1e-12));
  // Edge within the first block (coeff 1 on both sides): weight 1.
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  // Edge crossing blocks (1 vs 100): harmonic mean 2*100/101.
  EXPECT_NEAR(a.at(1, 2), -200.0 / 101.0, 1e-12);
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(Stencils, DiagShiftAddsToDiagonal) {
  StencilOptions opt;
  opt.diag_shift = 3.0;
  auto a = poisson2d_5pt(3, 3, opt);
  EXPECT_DOUBLE_EQ(a.at(4, 4), 7.0);
}

TEST(Stencils, InvalidSizesThrow) {
  EXPECT_THROW(poisson2d_5pt(0, 3), util::CheckError);
  EXPECT_THROW(poisson3d_7pt(2, -1, 2), util::CheckError);
}

TEST(RandomSpd, DiagonallyDominantAndSpd) {
  auto a = random_spd(40, 6, 1.1, 99);
  EXPECT_EQ(a.rows(), 40);
  EXPECT_TRUE(a.is_symmetric(0.0));
  for (index_t i = 0; i < a.rows(); ++i) {
    value_t diag = 0.0, off = 0.0;
    auto cols = a.row_cols(i);
    auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == i) {
        diag = vals[k];
      } else {
        off += std::abs(vals[k]);
      }
    }
    EXPECT_GT(diag, off);  // strict dominance -> SPD
  }
  EXPECT_NO_THROW(DenseCholesky{a});
}

TEST(RandomSpd, DeterministicForSeed) {
  auto a = random_spd(30, 4, 1.2, 7);
  auto b = random_spd(30, 4, 1.2, 7);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) EXPECT_DOUBLE_EQ(a.at(i, j), b.at(i, j));
  }
}

TEST(LambdaMax, MatchesDiagonalMatrix) {
  CsrMatrix d(3, 3, {0, 1, 2, 3}, {0, 1, 2}, {1.0, 5.0, 2.0});
  EXPECT_NEAR(lambda_max_estimate(d, 200), 5.0, 1e-8);
}

TEST(Stencils, UnitScaledMMatrixJacobiAlwaysConverges) {
  // Any unit-diagonal SPD matrix with non-positive off-diagonals has
  // λ_max < 2 (see DESIGN.md §5) — point Jacobi converges. Spot-check the
  // diffusion generators.
  for (auto* a : {new CsrMatrix(poisson2d_5pt(12, 12)),
                  new CsrMatrix(poisson3d_7pt(5, 5, 5))}) {
    auto s = symmetric_unit_diagonal_scale(*a);
    EXPECT_LT(lambda_max_estimate(s.a, 200), 2.0);
    delete a;
  }
}

}  // namespace
}  // namespace dsouth::sparse
