#include "dist/block_jacobi.hpp"

namespace dsouth::dist {

BlockJacobi::BlockJacobi(const DistLayout& layout, simmpi::Runtime& rt,
                         std::span<const value_t> b,
                         std::span<const value_t> x0)
    : DistStationarySolver(layout, rt, wire::Family::kDelta, b, x0) {}

void BlockJacobi::rank_send(int /*e*/, simmpi::RankContext& ctx, int p) {
  const auto prof_relax = prof_phase(p, prof::PhaseId::kRelax);
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  relax_subdomain(ctx, p);
  const auto prof_encode = prof_phase(p, prof::PhaseId::kEncode);
  auto& ch = channels_[static_cast<std::size_t>(p)];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    auto rec = ch.open(ctx, k, wire::RecordType::kGhostDelta);
    encode_boundary_dx(p, rd.neighbors[k], rec.dx);
  }
  ch.flush(ctx);
}

void BlockJacobi::absorb_record(simmpi::RankContext& ctx, int p,
                                std::size_t nbi, const wire::Record& rec) {
  absorb_boundary_dx(ctx, p, nbi, rec.dx);
}

}  // namespace dsouth::dist
