#include "graph/rcm.hpp"

#include <gtest/gtest.h>

#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::graph {
namespace {

TEST(Rcm, PermuteSymmetricPreservesValues) {
  auto a = sparse::poisson2d_9pt(4, 4);
  std::vector<index_t> perm(static_cast<std::size_t>(a.rows()));
  for (index_t i = 0; i < a.rows(); ++i) {
    perm[static_cast<std::size_t>(i)] = i;
  }
  util::Rng rng(3);
  rng.shuffle(std::span<index_t>(perm));
  auto b = permute_symmetric(a, perm);
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_TRUE(b.is_symmetric(1e-14));
  for (index_t ni = 0; ni < b.rows(); ++ni) {
    for (index_t nj : b.row_cols(ni)) {
      EXPECT_DOUBLE_EQ(
          b.at(ni, nj),
          a.at(perm[static_cast<std::size_t>(ni)],
               perm[static_cast<std::size_t>(nj)]));
    }
  }
}

TEST(Rcm, InvertPermutationRoundTrip) {
  std::vector<index_t> perm{2, 0, 3, 1};
  auto inv = invert_permutation(perm);
  EXPECT_EQ(inv[2], 0);
  EXPECT_EQ(inv[0], 1);
  EXPECT_EQ(inv[3], 2);
  EXPECT_EQ(inv[1], 3);
  auto back = invert_permutation(inv);
  EXPECT_EQ(back, perm);
}

TEST(Rcm, InvertRejectsNonPermutations) {
  EXPECT_THROW(invert_permutation({0, 0}), util::CheckError);
  EXPECT_THROW(invert_permutation({0, 5}), util::CheckError);
}

}  // namespace
}  // namespace dsouth::graph
