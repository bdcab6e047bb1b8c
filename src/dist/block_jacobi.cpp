#include "dist/block_jacobi.hpp"

#include "dist/subdomain.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

BlockJacobi::BlockJacobi(const DistLayout& layout, simmpi::Runtime& rt,
                         std::span<const value_t> b,
                         std::span<const value_t> x0)
    : DistStationarySolver(layout, rt, b, x0) {
  x_before_.resize(static_cast<std::size_t>(layout.num_ranks()));
}

void BlockJacobi::rank_relax(simmpi::RankContext& ctx, int p) {
  const auto prof_relax = prof_phase(p, prof::PhaseId::kRelax);
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  const auto up = static_cast<std::size_t>(p);
  auto& xp = x_[up];
  auto& rp = r_[up];
  x_before_[up] = xp;  // snapshot for Δx
  const double flops = local_gauss_seidel_sweep(rd, xp, rp);
  ctx.add_flops(flops);
  ++rank_stats_[up].active_ranks;
  rank_stats_[up].relaxations += rd.num_rows();
  trace_relax(ctx, rd.num_rows());
  const auto prof_encode = prof_phase(p, prof::PhaseId::kEncode);
  const auto& x_old = x_before_[up];
  auto& ch = channels_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    const auto& nb = rd.neighbors[k];
    auto rec = ch.open(ctx, k, wire::RecordType::kGhostDelta);
    for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
      const auto li = static_cast<std::size_t>(nb.send_rows_local[s]);
      // Resilient mode ships absolute boundary x (self-healing across
      // message loss — solver_base.hpp); default mode ships the delta.
      rec.dx[s] = resilient() ? xp[li] : xp[li] - x_old[li];
    }
  }
  ch.flush(ctx);
}

void BlockJacobi::absorb_payload(simmpi::RankContext& ctx, int p,
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

void BlockJacobi::rank_send(int /*e*/, simmpi::RankContext& ctx, int p) {
  rank_relax(ctx, p);
}

void BlockJacobi::rank_async_send(simmpi::RankContext& ctx, int p) {
  rank_relax(ctx, p);
}

}  // namespace dsouth::dist
