#include "graph/graph.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace dsouth::graph {

Graph Graph::from_matrix_structure(const sparse::CsrMatrix& a) {
  DSOUTH_CHECK(a.rows() == a.cols());
  std::vector<std::pair<index_t, index_t>> edges;
  edges.reserve(static_cast<std::size_t>(a.nnz()));
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      if (j == i) continue;
      edges.emplace_back(std::min(i, j), std::max(i, j));
    }
  }
  return from_edges(a.rows(), edges);
}

Graph Graph::from_edges(index_t num_vertices,
                        std::span<const std::pair<index_t, index_t>> edges) {
  DSOUTH_CHECK(num_vertices >= 0);
  std::vector<std::pair<index_t, index_t>> e;
  e.reserve(edges.size());
  for (auto [u, v] : edges) {
    DSOUTH_CHECK(u >= 0 && u < num_vertices && v >= 0 && v < num_vertices);
    if (u == v) continue;
    e.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(e.begin(), e.end());
  e.erase(std::unique(e.begin(), e.end()), e.end());

  Graph g;
  g.n_ = num_vertices;
  std::vector<index_t> deg(static_cast<std::size_t>(num_vertices), 0);
  for (auto [u, v] : e) {
    ++deg[static_cast<std::size_t>(u)];
    ++deg[static_cast<std::size_t>(v)];
  }
  g.ptr_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (index_t i = 0; i < num_vertices; ++i) {
    g.ptr_[static_cast<std::size_t>(i) + 1] =
        g.ptr_[static_cast<std::size_t>(i)] + deg[static_cast<std::size_t>(i)];
  }
  g.adj_.resize(static_cast<std::size_t>(g.ptr_.back()));
  std::vector<index_t> cursor(g.ptr_.begin(), g.ptr_.end() - 1);
  for (auto [u, v] : e) {
    g.adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    g.adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }
  // e is sorted by (u, v): every u-list fills in ascending v, and every
  // v-list fills in ascending u, so neighbor lists come out sorted.
  return g;
}

std::span<const index_t> Graph::neighbors(index_t v) const {
  DSOUTH_ASSERT(v >= 0 && v < n_);
  auto b = static_cast<std::size_t>(ptr_[v]);
  auto e = static_cast<std::size_t>(ptr_[v + 1]);
  return {adj_.data() + b, e - b};
}

index_t Graph::max_degree() const {
  index_t m = 0;
  for (index_t v = 0; v < n_; ++v) m = std::max(m, degree(v));
  return m;
}

std::vector<index_t> Graph::bfs_order(index_t start,
                                      std::span<const char> mask) const {
  DSOUTH_CHECK(start >= 0 && start < n_);
  DSOUTH_CHECK(mask.empty() || mask.size() == static_cast<std::size_t>(n_));
  auto allowed = [&](index_t v) {
    return mask.empty() || mask[static_cast<std::size_t>(v)] != 0;
  };
  DSOUTH_CHECK(allowed(start));
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  std::vector<index_t> order;
  std::deque<index_t> queue;
  queue.push_back(start);
  seen[static_cast<std::size_t>(start)] = 1;
  while (!queue.empty()) {
    index_t v = queue.front();
    queue.pop_front();
    order.push_back(v);
    for (index_t w : neighbors(v)) {
      if (!seen[static_cast<std::size_t>(w)] && allowed(w)) {
        seen[static_cast<std::size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
  }
  return order;
}

index_t Graph::connected_components(std::vector<index_t>& component) const {
  component.assign(static_cast<std::size_t>(n_), -1);
  index_t count = 0;
  for (index_t s = 0; s < n_; ++s) {
    if (component[static_cast<std::size_t>(s)] >= 0) continue;
    std::deque<index_t> queue{s};
    component[static_cast<std::size_t>(s)] = count;
    while (!queue.empty()) {
      index_t v = queue.front();
      queue.pop_front();
      for (index_t w : neighbors(v)) {
        if (component[static_cast<std::size_t>(w)] < 0) {
          component[static_cast<std::size_t>(w)] = count;
          queue.push_back(w);
        }
      }
    }
    ++count;
  }
  return count;
}

bool Graph::is_connected() const {
  if (n_ == 0) return true;
  std::vector<index_t> comp;
  return connected_components(comp) == 1;
}

}  // namespace dsouth::graph
