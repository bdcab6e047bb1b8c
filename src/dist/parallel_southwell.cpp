#include "dist/parallel_southwell.hpp"

#include "dist/subdomain.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

ParallelSouthwell::ParallelSouthwell(const DistLayout& layout,
                                     simmpi::Runtime& rt,
                                     std::span<const value_t> b,
                                     std::span<const value_t> x0,
                                     bool explicit_residual_updates)
    : DistStationarySolver(layout, rt, wire::Family::kNorm, b, x0),
      explicit_residual_updates_(explicit_residual_updates) {
  const int nranks = layout.num_ranks();
  gamma2_.resize(static_cast<std::size_t>(nranks));
  advertised2_.resize(static_cast<std::size_t>(nranks));
  // Setup exchange: neighbors start with exact knowledge (Alg. 2 line 5).
  for (int p = 0; p < nranks; ++p) {
    advertised2_[static_cast<std::size_t>(p)] =
        local_norm_sq(r_[static_cast<std::size_t>(p)]);
  }
  for (int p = 0; p < nranks; ++p) {
    const RankData& rd = layout.rank(p);
    auto& g = gamma2_[static_cast<std::size_t>(p)];
    g.resize(rd.neighbors.size());
    for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
      g[k] = advertised2_[static_cast<std::size_t>(rd.neighbors[k].rank)];
    }
  }
}

void ParallelSouthwell::capture_extra(std::vector<double>& out) const {
  for (int p = 0; p < layout_->num_ranks(); ++p) {
    const auto up = static_cast<std::size_t>(p);
    out.push_back(advertised2_[up]);
    out.insert(out.end(), gamma2_[up].begin(), gamma2_[up].end());
  }
}

void ParallelSouthwell::restore_extra(std::span<const double> in) {
  std::size_t i = 0;
  for (int p = 0; p < layout_->num_ranks(); ++p) {
    const auto up = static_cast<std::size_t>(p);
    DSOUTH_CHECK_MSG(i + 1 + gamma2_[up].size() <= in.size(),
                     "truncated PS checkpoint stream");
    advertised2_[up] = in[i++];
    for (auto& g : gamma2_[up]) g = in[i++];
  }
  DSOUTH_CHECK_MSG(i == in.size(), "oversized PS checkpoint stream");
}

void ParallelSouthwell::rank_relax(simmpi::RankContext& ctx, int p) {
  const auto prof_relax = prof_phase(p, prof::PhaseId::kRelax);
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  const auto up = static_cast<std::size_t>(p);
  const value_t norm2 = local_norm_sq(r_[up]);
  ctx.add_flops(2.0 * static_cast<double>(rd.num_rows()));
  if (norm2 <= 0.0) return;
  for (value_t g : gamma2_[up]) {
    if (g > norm2) return;  // a neighbor is (believed) worse off
  }

  relax_subdomain(ctx, p);
  const value_t norm2_new = local_norm_sq(r_[up]);
  advertised2_[up] = norm2_new;
  const auto prof_encode = prof_phase(p, prof::PhaseId::kEncode);
  auto& ch = channels_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    auto rec = ch.open(ctx, k, wire::RecordType::kNormUpdate, norm2_new);
    encode_boundary_dx(p, rd.neighbors[k], rec.dx);
    if (resilient()) resil_note_send(p, k);
  }
  ch.flush(ctx);
}

void ParallelSouthwell::rank_residual_update(simmpi::RankContext& ctx,
                                             int p) {
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0 || rd.neighbors.empty()) return;
  const auto up = static_cast<std::size_t>(p);
  const value_t norm2 = local_norm_sq(r_[up]);
  ctx.add_flops(2.0 * static_cast<double>(rd.num_rows()));
  const bool norm_changed = norm2 != advertised2_[up];
  const auto prof_encode = prof_phase(p, prof::PhaseId::kEncode);
  auto& ch = channels_[up];
  if (!resilient()) {
    if (!norm_changed) return;
    advertised2_[up] = norm2;
    for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
      ch.open(ctx, k, wire::RecordType::kResidualNorm, norm2);
    }
    ch.flush(ctx);
    return;
  }
  // Resilient mode: a channel silent for >= refresh_period steps gets a
  // full-state NormUpdate (absolute boundary x + current norm) even when
  // the norm is unchanged — this bounds the staleness a dropped message
  // can cause in both the neighbor's Γ entry and its boundary-x cache.
  const auto& xp = x_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    if (resil_refresh_due(p, k)) {
      const auto& nb = rd.neighbors[k];
      auto rec = ch.open(ctx, k, wire::RecordType::kNormUpdate, norm2);
      for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
        rec.dx[s] = xp[static_cast<std::size_t>(nb.send_rows_local[s])];
      }
      resil_note_refresh(ctx, p, k);
    } else if (norm_changed) {
      ch.open(ctx, k, wire::RecordType::kResidualNorm, norm2);
    }
  }
  if (norm_changed) advertised2_[up] = norm2;
  ch.flush(ctx);
}

void ParallelSouthwell::absorb_record(simmpi::RankContext& ctx, int p,
                                      std::size_t nbi,
                                      const wire::Record& rec) {
  gamma2_[static_cast<std::size_t>(p)][nbi] = rec.norm2;
  if (rec.type == wire::RecordType::kNormUpdate) {
    absorb_boundary_dx(ctx, p, nbi, rec.dx);
  }
}

void ParallelSouthwell::rank_send(int e, simmpi::RankContext& ctx, int p) {
  if (e == 0) {
    // ---- Epoch A: relax where the Parallel Southwell criterion holds.
    rank_relax(ctx, p);
    return;
  }
  // ---- Epoch B: explicit residual updates wherever the norm changed
  // (Alg. 2 lines 19-21). This is the traffic Distributed Southwell cuts.
  if (explicit_residual_updates_) rank_residual_update(ctx, p);
}

}  // namespace dsouth::dist
