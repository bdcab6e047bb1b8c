#include "dist/multicolor_block_gs.hpp"

#include "graph/graph.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

MulticolorBlockGs::MulticolorBlockGs(const DistLayout& layout,
                                     simmpi::Runtime& rt,
                                     std::span<const value_t> b,
                                     std::span<const value_t> x0)
    : BlockJacobi(layout, rt, b, x0) {
  // Color the subdomain coupling graph.
  std::vector<std::pair<graph::index_t, graph::index_t>> edges;
  for (int p = 0; p < layout.num_ranks(); ++p) {
    for (const auto& nb : layout.rank(p).neighbors) {
      if (nb.rank > p) edges.emplace_back(p, nb.rank);
    }
  }
  auto rank_graph = graph::Graph::from_edges(layout.num_ranks(), edges);
  coloring_ = graph::greedy_coloring(rank_graph, graph::ColoringOrder::kBfs);
}

void MulticolorBlockGs::capture_extra(std::vector<double>& out) const {
  out.push_back(static_cast<double>(next_color_));
  out.push_back(static_cast<double>(step_color_));
}

void MulticolorBlockGs::restore_extra(std::span<const double> in) {
  DSOUTH_CHECK_MSG(in.size() == 2, "malformed MCBGS checkpoint stream");
  next_color_ = static_cast<int>(in[0]);
  step_color_ = static_cast<int>(in[1]);
  DSOUTH_CHECK(next_color_ >= 0 && next_color_ < num_colors());
  DSOUTH_CHECK(step_color_ >= 0 && step_color_ < num_colors());
}

void MulticolorBlockGs::begin_step() {
  BlockJacobi::begin_step();
  step_color_ = next_color_;
  next_color_ = (next_color_ + 1) % num_colors();
}

void MulticolorBlockGs::rank_send(int e, simmpi::RankContext& ctx, int p) {
  // Off-color ranks do nothing — no trace events, no flops, no stats.
  if (static_cast<int>(coloring_.color[static_cast<std::size_t>(p)]) !=
      step_color_) {
    return;
  }
  BlockJacobi::rank_send(e, ctx, p);
}

}  // namespace dsouth::dist
