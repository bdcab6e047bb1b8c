#include "dist/distributed_southwell.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "dist/subdomain.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

DistributedSouthwell::DistributedSouthwell(
    const DistLayout& layout, simmpi::Runtime& rt, std::span<const value_t> b,
    std::span<const value_t> x0, const DistributedSouthwellOptions& opt)
    : DistStationarySolver(layout, rt, wire::Family::kEstimate, b, x0),
      opt_(opt) {
  const int nranks = layout.num_ranks();
  gamma2_.resize(static_cast<std::size_t>(nranks));
  gtilde2_.resize(static_cast<std::size_t>(nranks));
  ghost_.resize(static_cast<std::size_t>(nranks));
  dz_scratch_.resize(static_cast<std::size_t>(nranks));
  dx_scratch_.resize(static_cast<std::size_t>(nranks));
  // Reserve each rank's widest boundary so rank_relax never allocates dx.
  for (int p = 0; p < nranks; ++p) {
    std::size_t widest = 0;
    for (const auto& nb : layout.rank(p).neighbors) {
      widest = std::max(widest, nb.send_rows_local.size());
    }
    dx_scratch_[static_cast<std::size_t>(p)].reserve(widest);
  }
  corrections_sent_.assign(static_cast<std::size_t>(nranks), 0);
  deferred_sends_.assign(static_cast<std::size_t>(nranks), 0);
  if (auto* tracer = rt.tracer()) {
    auto& m = tracer->metrics();
    m_corrections_sent_ = m.register_metric("ds.corrections_sent",
                                            trace::MetricKind::kCounter);
    m_deferred_sends_ =
        m.register_metric("ds.deferred_sends", trace::MetricKind::kCounter);
  }
  if (opt_.send_threshold > 0.0) {
    pending_dx_.resize(static_cast<std::size_t>(nranks));
    for (int p = 0; p < nranks; ++p) {
      const RankData& rd = layout.rank(p);
      auto& pend = pending_dx_[static_cast<std::size_t>(p)];
      pend.resize(rd.neighbors.size());
      for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
        pend[k].assign(rd.neighbors[k].send_rows_local.size(), 0.0);
      }
    }
  }
  // Setup exchange (Alg. 3 lines 5-9): exact norms, exact ghost layers,
  // and consistent Γ̃ (everyone knows everyone's true norm at k=0).
  std::vector<value_t> norms2(static_cast<std::size_t>(nranks));
  for (int p = 0; p < nranks; ++p) {
    norms2[static_cast<std::size_t>(p)] =
        local_norm_sq(r_[static_cast<std::size_t>(p)]);
  }
  for (int p = 0; p < nranks; ++p) {
    const RankData& rd = layout.rank(p);
    const auto up = static_cast<std::size_t>(p);
    gamma2_[up].resize(rd.neighbors.size());
    gtilde2_[up].resize(rd.neighbors.size());
    ghost_[up].resize(rd.neighbors.size());
    for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
      const auto& nb = rd.neighbors[k];
      gamma2_[up][k] = norms2[static_cast<std::size_t>(nb.rank)];
      gtilde2_[up][k] = norms2[up];
      auto& z = ghost_[up][k];
      z.resize(nb.ghost_rows.size());
      for (std::size_t g = 0; g < nb.ghost_rows.size(); ++g) {
        const index_t gr = nb.ghost_rows[g];
        z[g] = r_[static_cast<std::size_t>(layout.rank_of_row(gr))]
                 [static_cast<std::size_t>(layout.local_of_row(gr))];
      }
    }
  }
}

void DistributedSouthwell::set_resilience(const ResilienceOptions& opt) {
  DSOUTH_CHECK_MSG(!(opt.enabled && opt_.send_threshold > 0.0),
                   "resilience is incompatible with send_threshold "
                   "(deferred sends would ship partial boundary state)");
  DistStationarySolver::set_resilience(opt);
}

void DistributedSouthwell::capture_extra(std::vector<double>& out) const {
  out.push_back(
      std::bit_cast<double>(static_cast<std::uint64_t>(step_count_)));
  out.push_back(heartbeat_ ? 1.0 : 0.0);
  for (int p = 0; p < layout_->num_ranks(); ++p) {
    const auto up = static_cast<std::size_t>(p);
    out.push_back(std::bit_cast<double>(corrections_sent_[up]));
    out.push_back(std::bit_cast<double>(deferred_sends_[up]));
    out.insert(out.end(), gamma2_[up].begin(), gamma2_[up].end());
    out.insert(out.end(), gtilde2_[up].begin(), gtilde2_[up].end());
    for (const auto& z : ghost_[up]) {
      out.insert(out.end(), z.begin(), z.end());
    }
    if (opt_.send_threshold > 0.0) {
      for (const auto& pend : pending_dx_[up]) {
        out.insert(out.end(), pend.begin(), pend.end());
      }
    }
  }
}

void DistributedSouthwell::restore_extra(std::span<const double> in) {
  std::size_t i = 0;
  const auto take = [&in, &i](std::size_t n) {
    DSOUTH_CHECK_MSG(i + n <= in.size(), "truncated DS checkpoint stream");
    auto s = in.subspan(i, n);
    i += n;
    return s;
  };
  step_count_ =
      static_cast<index_t>(std::bit_cast<std::uint64_t>(take(1)[0]));
  heartbeat_ = take(1)[0] != 0.0;
  for (int p = 0; p < layout_->num_ranks(); ++p) {
    const auto up = static_cast<std::size_t>(p);
    corrections_sent_[up] = std::bit_cast<std::uint64_t>(take(1)[0]);
    deferred_sends_[up] = std::bit_cast<std::uint64_t>(take(1)[0]);
    const auto g = take(gamma2_[up].size());
    std::copy(g.begin(), g.end(), gamma2_[up].begin());
    const auto gt = take(gtilde2_[up].size());
    std::copy(gt.begin(), gt.end(), gtilde2_[up].begin());
    for (auto& z : ghost_[up]) {
      const auto zs = take(z.size());
      std::copy(zs.begin(), zs.end(), z.begin());
    }
    if (opt_.send_threshold > 0.0) {
      for (auto& pend : pending_dx_[up]) {
        const auto ps = take(pend.size());
        std::copy(ps.begin(), ps.end(), pend.begin());
      }
    }
  }
  DSOUTH_CHECK_MSG(i == in.size(), "oversized DS checkpoint stream");
}

std::uint64_t DistributedSouthwell::corrections_sent() const {
  return std::accumulate(corrections_sent_.begin(), corrections_sent_.end(),
                         std::uint64_t{0});
}

std::uint64_t DistributedSouthwell::deferred_sends() const {
  return std::accumulate(deferred_sends_.begin(), deferred_sends_.end(),
                         std::uint64_t{0});
}

void DistributedSouthwell::rank_relax(simmpi::RankContext& ctx, int p) {
  const auto prof_relax = prof_phase(p, prof::PhaseId::kRelax);
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0) return;
  const auto up = static_cast<std::size_t>(p);
  const value_t norm2 = local_norm_sq(r_[up]);
  ctx.add_flops(2.0 * static_cast<double>(rd.num_rows()));
  if (norm2 <= 0.0) return;
  for (value_t g : gamma2_[up]) {
    if (g > norm2) return;  // a Γ estimate says a neighbor is worse off
  }

  relax_subdomain(ctx, p);
  const auto& xp = x_[up];
  const auto& rp = r_[up];
  const auto& snap = scratch_[up];  // pre-sweep x
  const value_t norm2_new = local_norm_sq(rp);
  const auto prof_encode = prof_phase(p, prof::PhaseId::kEncode);
  auto& dz = dz_scratch_[up];
  auto& dx = dx_scratch_[up];
  auto& ch = channels_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    const auto& nb = rd.neighbors[k];
    // Boundary Δx toward q, in send_rows_local order: the columns of a_qp
    // and the payload of the message.
    dx.resize(nb.send_rows_local.size());
    for (std::size_t s = 0; s < dx.size(); ++s) {
      const auto li = static_cast<std::size_t>(nb.send_rows_local[s]);
      dx[s] = xp[li] - snap[li];
    }
    // Local estimate maintenance: z_q -= a_qp · Δx_p, and fold the ghost
    // change into the Γ[q] estimate (all with local data only).
    if (opt_.enable_local_estimates) {
      auto& z = ghost_[up][k];
      dz.assign(z.size(), 0.0);
      nb.a_qp.spmv(dx, dz);
      ctx.add_flops(2.0 * static_cast<double>(nb.a_qp.nnz()));
      value_t old_sq = 0.0, new_sq = 0.0;
      for (std::size_t g = 0; g < z.size(); ++g) {
        old_sq += z[g] * z[g];
        z[g] -= dz[g];
        new_sq += z[g] * z[g];
      }
      gamma2_[up][k] =
          std::max<value_t>(0.0, gamma2_[up][k] + new_sq - old_sq);
    }
    // send_threshold extension: accumulate this relaxation's boundary
    // Δx and defer the message while the accumulated change is small
    // relative to the local residual norm.
    if (opt_.send_threshold > 0.0) {
      auto& pend = pending_dx_[up][k];
      value_t acc_sq = 0.0;
      for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
        pend[s] += dx[s];
        acc_sq += pend[s] * pend[s];
      }
      if (acc_sq <= opt_.send_threshold * opt_.send_threshold * norm2_new) {
        ++deferred_sends_[up];
        ctx.metric_add(m_deferred_sends_, 1.0);
        continue;  // no message this step; Γ̃ untouched (q learns nothing)
      }
      gtilde2_[up][k] = norm2_new;
      auto rec = ch.open(ctx, k, wire::RecordType::kSolveUpdate, norm2_new,
                         gamma2_[up][k]);
      std::copy(pend.begin(), pend.end(), rec.dx.begin());
      for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
        rec.rb[s] = rp[static_cast<std::size_t>(nb.send_rows_local[s])];
      }
      std::fill(pend.begin(), pend.end(), 0.0);
      continue;
    }
    gtilde2_[up][k] = norm2_new;  // the message tells q our exact norm
    auto rec = ch.open(ctx, k, wire::RecordType::kSolveUpdate, norm2_new,
                       gamma2_[up][k]);
    for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
      const auto li = static_cast<std::size_t>(nb.send_rows_local[s]);
      // Resilient mode ships absolute boundary x (self-healing across
      // message loss — solver_base.hpp); default mode ships the delta.
      rec.dx[s] = resilient() ? xp[li] : dx[s];
      rec.rb[s] = rp[li];
    }
    if (resilient()) resil_note_send(p, k);
  }
  ch.flush(ctx);
}

void DistributedSouthwell::rank_correct(simmpi::RankContext& ctx, int p,
                                        bool heartbeat) {
  const RankData& rd = layout_->rank(p);
  if (rd.num_rows() == 0 || rd.neighbors.empty()) return;
  const auto up = static_cast<std::size_t>(p);
  const value_t norm2 = local_norm_sq(r_[up]);
  ctx.add_flops(2.0 * static_cast<double>(rd.num_rows()));
  const auto prof_encode = prof_phase(p, prof::PhaseId::kEncode);
  const auto& rp = r_[up];
  const auto& xp = x_[up];
  auto& ch = channels_[up];
  for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
    const auto& nb = rd.neighbors[k];
    // Resilient mode: a channel silent for >= refresh_period steps gets a
    // full SolveUpdate (absolute boundary x, exact boundary residuals,
    // norms) regardless of the Γ̃ condition — bounding the staleness a
    // dropped message can cause in the neighbor's estimates and cache.
    if (resilient() && resil_refresh_due(p, k)) {
      auto rec = ch.open(ctx, k, wire::RecordType::kSolveUpdate, norm2,
                         gamma2_[up][k]);
      for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
        const auto li = static_cast<std::size_t>(nb.send_rows_local[s]);
        rec.dx[s] = xp[li];
        rec.rb[s] = rp[li];
      }
      gtilde2_[up][k] = norm2;  // it also corrects any overestimate
      resil_note_refresh(ctx, p, k);
      continue;
    }
    const bool must_heartbeat = heartbeat && norm2 > 0.0;
    if (!(norm2 < gtilde2_[up][k]) && !must_heartbeat) continue;
    auto rec = ch.open(ctx, k, wire::RecordType::kCorrection, norm2,
                       gamma2_[up][k]);
    for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
      rec.rb[s] = rp[static_cast<std::size_t>(nb.send_rows_local[s])];
    }
    gtilde2_[up][k] = norm2;
    ++corrections_sent_[up];
    ctx.metric_add(m_corrections_sent_, 1.0);
  }
  ch.flush(ctx);
}

void DistributedSouthwell::absorb_record(simmpi::RankContext& ctx, int p,
                                         std::size_t nbi,
                                         const wire::Record& rec) {
  const auto up = static_cast<std::size_t>(p);
  if (rec.type == wire::RecordType::kSolveUpdate) {
    absorb_boundary_dx(ctx, p, nbi, rec.dx);
  }
  std::copy(rec.rb.begin(), rec.rb.end(), ghost_[up][nbi].begin());
  gamma2_[up][nbi] = rec.norm2;
  gtilde2_[up][nbi] = rec.gamma2;
}

void DistributedSouthwell::begin_step() {
  DistStationarySolver::begin_step();
  // Epoch A never reads the step counter, so advancing it here (instead of
  // between the epochs, as the pre-hook stepping did) changes nothing; the
  // heartbeat flag epoch B reads is computed from the same value as ever.
  ++step_count_;
  heartbeat_ =
      opt_.heartbeat_period > 0 && step_count_ % opt_.heartbeat_period == 0;
}

void DistributedSouthwell::rank_send(int e, simmpi::RankContext& ctx, int p) {
  if (e == 0) {
    // ---- Epoch A: relax where ‖r_p‖² is maximal among the Γ *estimates*.
    rank_relax(ctx, p);
    return;
  }
  // ---- Epoch B: deadlock avoidance — correct only overestimates of us.
  if (opt_.enable_corrections) rank_correct(ctx, p, heartbeat_);
}

}  // namespace dsouth::dist
