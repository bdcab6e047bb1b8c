#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sparse/stencils.hpp"
#include "util/error.hpp"

namespace dsouth::graph {
namespace {

TEST(Graph, FromEdgesDedupsAndDropsSelfLoops) {
  std::vector<std::pair<index_t, index_t>> edges{
      {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 1}};
  auto g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Graph, NeighborListsAreSorted) {
  std::vector<std::pair<index_t, index_t>> edges{{3, 0}, {3, 2}, {3, 1}};
  auto g = Graph::from_edges(4, edges);
  auto nb = g.neighbors(3);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(Graph, FromMatrixStructureMatchesStencil) {
  auto a = sparse::poisson2d_5pt(3, 3);
  auto g = Graph::from_matrix_structure(a);
  EXPECT_EQ(g.num_vertices(), 9);
  // 5-pt on 3x3: 6 horizontal + 6 vertical edges.
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(g.degree(4), 4);  // center
  EXPECT_EQ(g.degree(0), 2);  // corner
  EXPECT_EQ(g.max_degree(), 4);
}

TEST(Graph, OutOfRangeEdgeThrows) {
  std::vector<std::pair<index_t, index_t>> edges{{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, edges), util::CheckError);
}

TEST(Graph, BfsVisitsComponentInLevelOrder) {
  // Path 0-1-2-3.
  std::vector<std::pair<index_t, index_t>> edges{{0, 1}, {1, 2}, {2, 3}};
  auto g = Graph::from_edges(4, edges);
  auto order = g.bfs_order(1);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);
  // Levels: {0, 2} then {3}.
  EXPECT_EQ(order[3], 3);
}

TEST(Graph, BfsRespectsMask) {
  std::vector<std::pair<index_t, index_t>> edges{{0, 1}, {1, 2}, {2, 3}};
  auto g = Graph::from_edges(4, edges);
  std::vector<char> mask{1, 1, 0, 1};  // block vertex 2
  auto order = g.bfs_order(0, mask);
  std::set<index_t> visited(order.begin(), order.end());
  EXPECT_TRUE(visited.count(0));
  EXPECT_TRUE(visited.count(1));
  EXPECT_FALSE(visited.count(2));
  EXPECT_FALSE(visited.count(3));  // unreachable through the mask
}

TEST(Graph, ConnectedComponents) {
  std::vector<std::pair<index_t, index_t>> edges{{0, 1}, {2, 3}, {3, 4}};
  auto g = Graph::from_edges(6, edges);
  std::vector<index_t> comp;
  EXPECT_EQ(g.connected_components(comp), 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_FALSE(g.is_connected());
  EXPECT_TRUE(
      Graph::from_matrix_structure(sparse::poisson2d_5pt(4, 4)).is_connected());
}

TEST(Graph, EmptyGraphBehaves) {
  auto g = Graph::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_TRUE(g.is_connected());
}

}  // namespace
}  // namespace dsouth::graph
