#include "dist/multicolor_block_gs.hpp"

#include "dist/subdomain.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

MulticolorBlockGs::MulticolorBlockGs(const DistLayout& layout,
                                     simmpi::Runtime& rt,
                                     std::span<const value_t> b,
                                     std::span<const value_t> x0)
    : DistStationarySolver(layout, rt, b, x0) {
  // Color the subdomain coupling graph.
  std::vector<std::pair<graph::index_t, graph::index_t>> edges;
  for (int p = 0; p < layout.num_ranks(); ++p) {
    for (const auto& nb : layout.rank(p).neighbors) {
      if (nb.rank > p) edges.emplace_back(p, nb.rank);
    }
  }
  auto rank_graph = graph::Graph::from_edges(layout.num_ranks(), edges);
  coloring_ = graph::greedy_coloring(rank_graph, graph::ColoringOrder::kBfs);
  color_ranks_.resize(static_cast<std::size_t>(coloring_.num_colors));
  for (int p = 0; p < layout.num_ranks(); ++p) {
    color_ranks_[static_cast<std::size_t>(
                     coloring_.color[static_cast<std::size_t>(p)])]
        .push_back(p);
  }
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

void MulticolorBlockGs::rank_relax(simmpi::RankContext& ctx, int p) {
  const auto prof_relax = prof_phase(p, prof::PhaseId::kRelax);
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  const auto up = static_cast<std::size_t>(p);
  auto& xp = x_[up];
  auto& rp = r_[up];
  auto& snap = scratch_[up];
  snap.assign(xp.begin(), xp.end());
  const double flops = local_gauss_seidel_sweep(rd, xp, rp);
  ctx.add_flops(flops);
  ++rank_stats_[up].active_ranks;
  rank_stats_[up].relaxations += rd.num_rows();
  trace_relax(ctx, rd.num_rows());
  const auto prof_encode = prof_phase(p, prof::PhaseId::kEncode);
  auto& ch = channels_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    const auto& nb = rd.neighbors[k];
    auto rec = ch.open(ctx, k, wire::RecordType::kGhostDelta);
    for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
      const auto li = static_cast<std::size_t>(nb.send_rows_local[s]);
      // Resilient mode ships absolute boundary x (self-healing across
      // message loss — solver_base.hpp); default mode ships the delta.
      rec.dx[s] = resilient() ? xp[li] : xp[li] - snap[li];
    }
  }
  ch.flush(ctx);
}

void MulticolorBlockGs::absorb_payload(simmpi::RankContext& ctx, int p,
                                       std::size_t nbi,
                                       std::span<const double> payload) {
  const auto& nb = layout_->rank(p).neighbors[nbi];
  if (resilient()) {
    const auto body = resil_accept(ctx, p, nbi, payload);
    if (body.empty()) return;
    const auto rec =
        wire::decode_record(wire::Family::kDelta, body, nb.ghost_rows.size());
    resil_apply_boundary_x(ctx, p, nbi, rec.dx);
    return;
  }
  wire::for_each_record(wire::Family::kDelta, payload, nb.ghost_rows.size(),
                        [&](const wire::Record& rec) {
                          apply_incoming_delta(ctx, nb, rec.dx);
                        });
}

void MulticolorBlockGs::begin_step() {
  DistStationarySolver::begin_step();
  step_color_ = next_color_;
  next_color_ = (next_color_ + 1) % num_colors();
}

void MulticolorBlockGs::rank_send(int /*e*/, simmpi::RankContext& ctx,
                                  int p) {
  // Off-color ranks do nothing — no trace events, no flops, no stats — so
  // sweeping every rank here matches the old color-restricted dispatch
  // byte for byte. The color rotation is unchanged — only which hook
  // advances it moved.
  if (static_cast<int>(coloring_.color[static_cast<std::size_t>(p)]) !=
      step_color_) {
    return;
  }
  rank_relax(ctx, p);
}

void MulticolorBlockGs::rank_async_send(simmpi::RankContext& ctx, int p) {
  if (static_cast<int>(coloring_.color[static_cast<std::size_t>(p)]) !=
      step_color_) {
    return;
  }
  rank_relax(ctx, p);
}

}  // namespace dsouth::dist
