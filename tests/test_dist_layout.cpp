#include "dist/layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sparse/coo.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::dist {
namespace {

graph::Partition make_partition(const CsrMatrix& a, index_t k) {
  auto g = graph::Graph::from_matrix_structure(a);
  return graph::partition_recursive_bisection(g, k);
}

TEST(DistLayout, ValidatesOnPoissonGrid) {
  auto a = sparse::poisson2d_5pt(12, 12);
  auto p = make_partition(a, 8);
  DistLayout layout(a, p);
  EXPECT_EQ(layout.num_ranks(), 8);
  EXPECT_EQ(layout.global_rows(), 144);
  EXPECT_TRUE(layout.validate(a));
}

TEST(DistLayout, ValidatesOnElasticityProxy) {
  auto proxy = sparse::make_proxy("msdoorp", 0.02);
  auto p = make_partition(proxy.a, 12);
  DistLayout layout(proxy.a, p);
  EXPECT_TRUE(layout.validate(proxy.a));
}

TEST(DistLayout, SingletonPartitionHasOneRowPerRank) {
  auto a = sparse::poisson2d_5pt(4, 4);
  graph::Partition p;
  p.num_parts = 16;
  p.part.resize(16);
  for (index_t i = 0; i < 16; ++i) p.part[static_cast<std::size_t>(i)] = i;
  DistLayout layout(a, p);
  EXPECT_TRUE(layout.validate(a));
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(layout.rank(r).num_rows(), 1);
    // Interior rank 5 (grid point (1,1)) has 4 neighbors.
  }
  EXPECT_EQ(layout.rank(5).neighbors.size(), 4u);
  EXPECT_EQ(layout.rank(0).neighbors.size(), 2u);
}

TEST(DistLayout, RowMapsAreConsistent) {
  auto a = sparse::poisson2d_5pt(10, 7);
  auto p = make_partition(a, 5);
  DistLayout layout(a, p);
  for (index_t g = 0; g < a.rows(); ++g) {
    const int r = layout.rank_of_row(g);
    const index_t l = layout.local_of_row(g);
    EXPECT_EQ(layout.rank(r).rows[static_cast<std::size_t>(l)], g);
  }
}

TEST(DistLayout, ScatterGatherRoundTrip) {
  auto a = sparse::poisson2d_5pt(9, 9);
  auto p = make_partition(a, 6);
  DistLayout layout(a, p);
  util::Rng rng(3);
  std::vector<value_t> v(81);
  rng.fill_uniform(v, -5.0, 5.0);
  auto locals = layout.scatter(v);
  auto back = layout.gather(locals);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(back[i], v[i]);
}

TEST(DistLayout, LocalBlocksPartitionTheMatrix) {
  // nnz(A) = Σ nnz(A_pp) + Σ nnz(A_pq): every entry lands in exactly one
  // block.
  auto a = sparse::poisson2d_9pt(8, 8);
  auto p = make_partition(a, 4);
  DistLayout layout(a, p);
  index_t total = 0;
  for (int r = 0; r < layout.num_ranks(); ++r) {
    const auto& rd = layout.rank(r);
    total += rd.a_local.nnz();
    for (const auto& nb : rd.neighbors) total += nb.a_pq.nnz();
  }
  EXPECT_EQ(total, a.nnz());
}

TEST(DistLayout, TransposedBlocksMatch) {
  auto a = sparse::poisson2d_5pt(8, 8);
  auto p = make_partition(a, 4);
  DistLayout layout(a, p);
  for (int r = 0; r < layout.num_ranks(); ++r) {
    for (const auto& nb : layout.rank(r).neighbors) {
      // a_qp == a_pqᵀ entry by entry.
      auto t = nb.a_pq.transpose();
      ASSERT_EQ(t.nnz(), nb.a_qp.nnz());
      for (index_t i = 0; i < t.rows(); ++i) {
        for (index_t j : t.row_cols(i)) {
          EXPECT_DOUBLE_EQ(t.at(i, j), nb.a_qp.at(i, j));
        }
      }
    }
  }
}

TEST(DistLayout, CompressedCouplingApplyIsBitIdenticalToFullHeight) {
  // a_pq stores only p's rows coupled to q. Applying it through
  // send_rows_local must give bit for bit what the full-height A_pq
  // (every local row, most of them empty) gives through spmv_acc — even
  // on a residual that holds -0.0 in rows the block does not touch.
  auto proxy = sparse::make_proxy("msdoorp", 0.02);
  const CsrMatrix& a = proxy.a;
  auto part = make_partition(a, 12);
  DistLayout layout(a, part);
  util::Rng rng(17);
  std::size_t negative_zero_rows = 0;
  for (int p = 0; p < layout.num_ranks(); ++p) {
    const RankData& rd = layout.rank(p);
    const index_t m = rd.num_rows();
    ASSERT_EQ(rd.a_local_diag, rd.a_local.diagonal());
    for (value_t d : rd.a_local_diag) EXPECT_NE(d, 0.0);
    for (const auto& nb : rd.neighbors) {
      ASSERT_EQ(nb.a_pq.rows(),
                static_cast<index_t>(nb.send_rows_local.size()));
      for (index_t s = 0; s < nb.a_pq.rows(); ++s) {
        EXPECT_GT(nb.a_pq.row_nnz(s), 0) << "empty a_pq row " << s;
      }
      // Full-height A_pq straight from the global matrix.
      sparse::CooBuilder full_b(m, static_cast<index_t>(nb.ghost_rows.size()));
      for (index_t li = 0; li < m; ++li) {
        const index_t gi = rd.rows[static_cast<std::size_t>(li)];
        auto cols = a.row_cols(gi);
        auto vals = a.row_vals(gi);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          if (layout.rank_of_row(cols[k]) != nb.rank) continue;
          auto it = std::lower_bound(nb.ghost_rows.begin(),
                                     nb.ghost_rows.end(), cols[k]);
          ASSERT_TRUE(it != nb.ghost_rows.end() && *it == cols[k]);
          full_b.add(li, static_cast<index_t>(it - nb.ghost_rows.begin()),
                     vals[k]);
        }
      }
      const CsrMatrix full = full_b.to_csr();
      ASSERT_EQ(full.nnz(), nb.a_pq.nnz());

      std::vector<value_t> dx(nb.ghost_rows.size());
      rng.fill_uniform(dx, -1.0, 1.0);
      std::vector<value_t> r(static_cast<std::size_t>(m));
      rng.fill_uniform(r, -1.0, 1.0);
      std::vector<char> boundary(r.size(), 0);
      for (index_t li : nb.send_rows_local) {
        boundary[static_cast<std::size_t>(li)] = 1;
      }
      for (std::size_t li = 0; li < r.size(); li += 2) {
        if (!boundary[li]) {
          r[li] = -0.0;
          ++negative_zero_rows;
        }
      }
      std::vector<value_t> r_full = r, r_compressed = r;
      full.spmv_acc(-1.0, dx, r_full);
      nb.a_pq.spmv_acc_scatter(-1.0, dx, nb.send_rows_local, r_compressed);
      EXPECT_EQ(std::memcmp(r_full.data(), r_compressed.data(),
                            r.size() * sizeof(value_t)),
                0)
          << "rank " << p << " neighbor " << nb.rank;
      for (std::size_t li = 0; li < r.size(); ++li) {
        if (!boundary[li] && r[li] == 0.0 && std::signbit(r[li])) {
          EXPECT_TRUE(std::signbit(r_compressed[li]));
        }
      }
    }
  }
  EXPECT_GT(negative_zero_rows, 0u);
}

TEST(DistLayout, NeighborRelationIsSymmetric) {
  auto a = sparse::poisson2d_5pt(10, 10);
  auto p = make_partition(a, 7);
  DistLayout layout(a, p);
  for (int r = 0; r < layout.num_ranks(); ++r) {
    for (const auto& nb : layout.rank(r).neighbors) {
      EXPECT_GE(layout.rank(nb.rank).neighbor_index(r), 0);
    }
  }
}

TEST(DistLayout, RejectsInvalidPartition) {
  auto a = sparse::poisson2d_5pt(3, 3);
  graph::Partition bad;
  bad.num_parts = 2;
  bad.part = {0, 0, 0};  // wrong size
  EXPECT_THROW(DistLayout(a, bad), util::CheckError);
}

TEST(DistLayout, ContiguousBlocksWork) {
  auto a = sparse::poisson2d_5pt(6, 6);
  auto p = graph::partition_contiguous_blocks(36, 5);
  DistLayout layout(a, p);
  EXPECT_TRUE(layout.validate(a));
}

}  // namespace
}  // namespace dsouth::dist
