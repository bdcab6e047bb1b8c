#pragma once

/// \file coloring.hpp
/// Greedy graph coloring. Multicolor Gauss–Seidel (one of the paper's
/// baselines, Fig. 2/5) relaxes all rows of one color per parallel step;
/// the paper colors "using a breadth-first traversal", which is the default
/// order here.

#include <vector>

#include "graph/graph.hpp"

namespace dsouth::graph {

/// Vertex visit order for the greedy coloring.
enum class ColoringOrder {
  kBfs,           ///< breadth-first from a pseudo-peripheral vertex (paper)
  kNatural,       ///< 0, 1, 2, ...
  kLargestFirst,  ///< descending degree (Welsh–Powell)
};

struct Coloring {
  std::vector<index_t> color;  ///< per-vertex color id, dense from 0
  index_t num_colors = 0;

  /// Vertices grouped by color, each group in ascending vertex order.
  std::vector<std::vector<index_t>> groups() const;
};

/// Greedy coloring: visit vertices in the given order, assign the smallest
/// color unused by already-colored neighbors. Disconnected graphs are
/// handled (BFS restarts per component).
Coloring greedy_coloring(const Graph& g,
                         ColoringOrder order = ColoringOrder::kBfs);

/// True iff no edge joins two vertices of the same color and all colors
/// are in [0, num_colors).
/// Test-only oracle: the Coloring.* tests check greedy_coloring with it.
bool coloring_is_valid(const Graph& g, const Coloring& c);

}  // namespace dsouth::graph
