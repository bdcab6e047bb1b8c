#include "dist/solver_base.hpp"

#include <algorithm>
#include <cmath>

#include "dist/subdomain.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

void subtract_a_times_x_local(const DistLayout& layout,
                              const std::vector<std::vector<value_t>>& x,
                              std::vector<value_t>& r_p, int p,
                              std::vector<value_t>& ghost_buf) {
  const RankData& rd = layout.rank(p);
  if (rd.num_rows() == 0) return;
  rd.a_local.spmv_acc(-1.0, x[static_cast<std::size_t>(p)], r_p);
  for (const auto& nb : rd.neighbors) {
    ghost_buf.resize(nb.ghost_rows.size());
    for (std::size_t k = 0; k < nb.ghost_rows.size(); ++k) {
      const index_t g = nb.ghost_rows[k];
      ghost_buf[k] = x[static_cast<std::size_t>(layout.rank_of_row(g))]
                      [static_cast<std::size_t>(layout.local_of_row(g))];
    }
    nb.a_pq.spmv_acc_scatter(-1.0, ghost_buf, nb.send_rows_local, r_p);
  }
}

DistStationarySolver::DistStationarySolver(const DistLayout& layout,
                                           simmpi::Runtime& rt,
                                           wire::Family family,
                                           std::span<const value_t> b,
                                           std::span<const value_t> x0)
    : layout_(&layout),
      rt_(&rt),
      family_(family),
      owned_backend_(std::make_unique<simmpi::SequentialBackend>()),
      backend_(owned_backend_.get()) {
  DSOUTH_CHECK(rt.num_ranks() == layout.num_ranks());
  DSOUTH_CHECK(b.size() == static_cast<std::size_t>(layout.global_rows()));
  DSOUTH_CHECK(x0.size() == static_cast<std::size_t>(layout.global_rows()));
  x_ = layout.scatter(x0);
  // Initial residual r_p = b_p - A_pp x_p - Σ_q A_pq x_q (setup phase; may
  // read neighbor x directly).
  r_ = layout.scatter(b);
  const auto nranks = static_cast<std::size_t>(layout.num_ranks());
  scratch_.resize(nranks);
  rank_stats_.resize(nranks);
  channels_.reserve(nranks);
  std::vector<value_t> ghost_buf;
  for (int p = 0; p < layout.num_ranks(); ++p) {
    subtract_a_times_x_local(layout, x_, r_[static_cast<std::size_t>(p)], p,
                             ghost_buf);
    scratch_[static_cast<std::size_t>(p)].resize(
        static_cast<std::size_t>(layout.rank(p).num_rows()));
    channels_.emplace_back(layout.comm_plan(), p);
  }
  if (auto* tracer = rt.tracer()) {
    auto& m = tracer->metrics();
    m_relaxed_rows_ = m.register_metric("solver.relaxed_rows",
                                        trace::MetricKind::kCounter);
    m_rank_relaxations_ = m.register_metric("solver.rank_relaxations",
                                            trace::MetricKind::kCounter);
    m_absorbed_msgs_ = m.register_metric("solver.absorbed_msgs",
                                         trace::MetricKind::kCounter);
  }
}

void DistStationarySolver::trace_relax(simmpi::RankContext& ctx,
                                       index_t rows) {
  if (!ctx.tracing()) return;
  const auto& rp = r_[static_cast<std::size_t>(ctx.rank())];
  ctx.trace_event(trace::EventKind::kRelax, static_cast<double>(rows),
                  local_norm_sq(rp));
  ctx.metric_add(m_relaxed_rows_, static_cast<double>(rows));
  ctx.metric_add(m_rank_relaxations_, 1.0);
}

void DistStationarySolver::relax_subdomain(simmpi::RankContext& ctx,
                                           int p) {
  const RankData& rd = layout_->rank(p);
  const auto up = static_cast<std::size_t>(p);
  auto& xp = x_[up];
  scratch_[up].assign(xp.begin(), xp.end());
  ctx.add_flops(local_gauss_seidel_sweep(rd, xp, r_[up]));
  ++rank_stats_[up].active_ranks;
  rank_stats_[up].relaxations += rd.num_rows();
  trace_relax(ctx, rd.num_rows());
}

void DistStationarySolver::encode_boundary_dx(int p, const NeighborBlock& nb,
                                              std::span<double> dx) const {
  const auto up = static_cast<std::size_t>(p);
  const auto& xp = x_[up];
  const auto& snap = scratch_[up];
  for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
    const auto li = static_cast<std::size_t>(nb.send_rows_local[s]);
    dx[s] = resilient() ? xp[li] : xp[li] - snap[li];
  }
}

void DistStationarySolver::trace_absorb(simmpi::RankContext& ctx) {
  if (!ctx.tracing()) return;
  const auto window = ctx.window();
  if (window.empty()) return;
  std::size_t doubles = 0;
  for (const auto& msg : window) doubles += msg.payload.size();
  ctx.trace_event(trace::EventKind::kAbsorb,
                  static_cast<double>(window.size()),
                  static_cast<double>(doubles));
  ctx.metric_add(m_absorbed_msgs_, static_cast<double>(window.size()));
}

double DistStationarySolver::global_residual_norm() const {
  double sum = 0.0;
  for (const auto& rp : r_) sum += local_norm_sq(rp);
  return std::sqrt(sum);
}

std::vector<value_t> DistStationarySolver::gather_x() const {
  return layout_->gather(x_);
}

DistStepStats DistStationarySolver::step() {
  begin_step();
  if (async_mode()) {
    // Relax-on-arrival: absorb whatever matured at earlier fences, run the
    // solver's fused send phase on that (staleness-bounded) state, fence
    // once. Messages sent here land whenever the delivery policy's
    // virtual clock says they do.
    for_each_rank([this](simmpi::RankContext& ctx, int p) {
      rank_absorb(ctx, p);
      rank_async_send(ctx, p);
    });
    rt_->fence();
    return merge_rank_stats();
  }
  const int epochs = step_epochs();
  for (int e = 0; e < epochs; ++e) {
    for_each_rank([this, e](simmpi::RankContext& ctx, int p) {
      rank_send(e, ctx, p);
    });
    rt_->fence();
    for_each_rank([this](simmpi::RankContext& ctx, int p) {
      rank_absorb(ctx, p);
    });
  }
  return merge_rank_stats();
}

void DistStationarySolver::rank_async_send(simmpi::RankContext& ctx, int p) {
  const int epochs = step_epochs();
  for (int e = 0; e < epochs; ++e) rank_send(e, ctx, p);
}

void DistStationarySolver::rank_absorb(simmpi::RankContext& ctx, int p) {
  const auto prof_absorb = prof_phase(p, prof::PhaseId::kAbsorb);
  const RankData& rd = layout_->rank(p);
  for (const auto& msg : ctx.window()) {
    const int nbi = rd.neighbor_index(msg.source);
    DSOUTH_CHECK_MSG(nbi >= 0, "message from non-neighbor " << msg.source);
    absorb_payload(ctx, p, static_cast<std::size_t>(nbi), msg.payload);
  }
  trace_absorb(ctx);
  ctx.consume();
}

void DistStationarySolver::absorb_payload(simmpi::RankContext& ctx, int p,
                                          std::size_t nbi,
                                          std::span<const double> payload) {
  const std::size_t width = layout_->rank(p).neighbors[nbi].ghost_rows.size();
  if (resilient()) {
    const auto body = resil_accept(ctx, p, nbi, payload);
    if (body.empty()) return;
    absorb_record(ctx, p, nbi, wire::decode_record(family_, body, width));
    return;
  }
  // Decode against the channel's receive width (the codec validates every
  // length); a frame yields each coalesced record in send order.
  wire::for_each_record(family_, payload, width, [&](const wire::Record& rec) {
    absorb_record(ctx, p, nbi, rec);
  });
}

void DistStationarySolver::absorb_boundary_dx(simmpi::RankContext& ctx, int p,
                                              std::size_t nbi,
                                              std::span<const double> dx) {
  if (resilient()) {
    resil_apply_boundary_x(ctx, p, nbi, dx);
  } else {
    apply_incoming_delta(ctx, layout_->rank(p).neighbors[nbi], dx);
  }
}

void DistStationarySolver::absorb_all() {
  for_each_rank([this](simmpi::RankContext& ctx, int p) {
    rank_absorb(ctx, p);
  });
}

void DistStationarySolver::set_message_coalescing(bool on) {
  for (auto& ch : channels_) ch.set_coalescing(on);
}

void DistStationarySolver::set_batch_staging(bool on) {
  for (auto& ch : channels_) ch.set_batch_staging(on);
}

bool DistStationarySolver::message_coalescing() const {
  return !channels_.empty() && channels_.front().coalescing();
}

void DistStationarySolver::set_resilience(const ResilienceOptions& opt) {
  DSOUTH_CHECK_MSG(resil_step_count_ == 0,
                   "set_resilience must precede the first step");
  DSOUTH_CHECK_MSG(!(opt.enabled && message_coalescing()),
                   "resilience and message coalescing are incompatible");
  DSOUTH_CHECK_MSG(opt.refresh_period >= 0, "refresh_period must be >= 0");
  resil_ = opt;
  for (auto& ch : channels_) ch.set_sequencing(opt.enabled);
  if (!opt.enabled) {
    ghost_x_.clear();
    recv_min_seq_.clear();
    last_send_step_.clear();
    resil_dx_.clear();
    resil_stats_.clear();
    return;
  }
  const auto nranks = static_cast<std::size_t>(layout_->num_ranks());
  ghost_x_.resize(nranks);
  recv_min_seq_.resize(nranks);
  last_send_step_.resize(nranks);
  resil_dx_.resize(nranks);
  resil_stats_.assign(nranks, ResilienceStats{});
  for (int p = 0; p < layout_->num_ranks(); ++p) {
    const RankData& rd = layout_->rank(p);
    const auto up = static_cast<std::size_t>(p);
    ghost_x_[up].resize(rd.neighbors.size());
    recv_min_seq_[up].assign(rd.neighbors.size(), 0);
    // Setup counts as a full exchange: both ends agree on x0 exactly.
    last_send_step_[up].assign(rd.neighbors.size(), 0);
    std::size_t max_width = 0;
    for (std::size_t k = 0; k < rd.neighbors.size(); ++k) {
      const auto& nb = rd.neighbors[k];
      max_width = std::max(max_width, nb.ghost_rows.size());
      auto& cache = ghost_x_[up][k];
      cache.resize(nb.ghost_rows.size());
      for (std::size_t g = 0; g < nb.ghost_rows.size(); ++g) {
        const index_t gr = nb.ghost_rows[g];
        cache[g] = x_[static_cast<std::size_t>(layout_->rank_of_row(gr))]
                     [static_cast<std::size_t>(layout_->local_of_row(gr))];
      }
    }
    resil_dx_[up].resize(max_width);
  }
  if (auto* tracer = rt_->tracer()) {
    auto& m = tracer->metrics();
    m_resil_rejected_ = m.register_metric("solver.resil_rejected",
                                          trace::MetricKind::kCounter);
    m_resil_refreshes_ = m.register_metric("solver.resil_refreshes",
                                           trace::MetricKind::kCounter);
  }
}

DistStationarySolver::SolverState DistStationarySolver::capture_state()
    const {
  SolverState s;
  s.resil_step_count = resil_step_count_;
  s.x = x_;
  s.r = r_;
  s.send_seq.resize(channels_.size());
  for (std::size_t p = 0; p < channels_.size(); ++p) {
    const auto peers =
        layout_->comm_plan().peers(static_cast<int>(p)).size();
    DSOUTH_CHECK_MSG(channels_[p].idle(),
                     "capture_state with a put phase in flight on rank "
                         << p);
    s.send_seq[p].resize(peers);
    for (std::size_t k = 0; k < peers; ++k) {
      s.send_seq[p][k] = channels_[p].sent_seq(k);
    }
  }
  s.ghost_x = ghost_x_;
  s.recv_min_seq = recv_min_seq_;
  s.last_send_step = last_send_step_;
  s.resil_stats = resil_stats_;
  capture_extra(s.extra);
  return s;
}

void DistStationarySolver::restore_state(const SolverState& s) {
  DSOUTH_CHECK_MSG(s.x.size() == x_.size() && s.r.size() == r_.size(),
                   "solver state from a different layout");
  for (std::size_t p = 0; p < x_.size(); ++p) {
    DSOUTH_CHECK(s.x[p].size() == x_[p].size());
    DSOUTH_CHECK(s.r[p].size() == r_[p].size());
  }
  DSOUTH_CHECK_MSG(s.send_seq.size() == channels_.size(),
                   "solver state from a different layout");
  // Resilient caches must match the solver's configuration: a checkpoint
  // taken with resilience on only restores into a solver with it on (the
  // caches are sized by set_resilience, which must precede the restore).
  DSOUTH_CHECK_MSG(s.ghost_x.size() == ghost_x_.size(),
                   "solver state from a different resilience configuration");
  resil_step_count_ = s.resil_step_count;
  x_ = s.x;
  r_ = s.r;
  for (std::size_t p = 0; p < channels_.size(); ++p) {
    DSOUTH_CHECK(s.send_seq[p].size() ==
                 layout_->comm_plan().peers(static_cast<int>(p)).size());
    for (std::size_t k = 0; k < s.send_seq[p].size(); ++k) {
      channels_[p].set_sent_seq(k, s.send_seq[p][k]);
    }
  }
  if (resil_.enabled) {
    DSOUTH_CHECK(s.recv_min_seq.size() == recv_min_seq_.size());
    DSOUTH_CHECK(s.last_send_step.size() == last_send_step_.size());
    DSOUTH_CHECK(s.resil_stats.size() == resil_stats_.size());
    ghost_x_ = s.ghost_x;
    recv_min_seq_ = s.recv_min_seq;
    last_send_step_ = s.last_send_step;
    resil_stats_ = s.resil_stats;
  }
  restore_extra(s.extra);
}

void DistStationarySolver::restore_extra(std::span<const double> in) {
  DSOUTH_CHECK_MSG(in.empty(),
                   "checkpoint carries extra state this solver never wrote");
}

ResilienceStats DistStationarySolver::resilience_stats() const {
  ResilienceStats total;
  for (const auto& st : resil_stats_) {
    total.rejected_corrupt += st.rejected_corrupt;
    total.rejected_stale += st.rejected_stale;
    total.refreshes_sent += st.refreshes_sent;
  }
  return total;
}

std::span<const double> DistStationarySolver::resil_accept(
    simmpi::RankContext& ctx, int p, std::size_t nbi,
    std::span<const double> payload) {
  const auto up = static_cast<std::size_t>(p);
  try {
    const wire::EnvelopeView env = wire::decode_envelope(payload);
    auto& next = recv_min_seq_[up][nbi];
    if (env.seq < next) {
      ++resil_stats_[up].rejected_stale;
      ctx.metric_add(m_resil_rejected_, 1.0);
      return {};
    }
    next = env.seq + 1;
    return env.body;
  } catch (const wire::DecodeError&) {
    // Truncated, bit-corrupted, or otherwise malformed — drop it; the
    // sender's next (or refresh) message carries the full state anyway.
    ++resil_stats_[up].rejected_corrupt;
    ctx.metric_add(m_resil_rejected_, 1.0);
    return {};
  }
}

void DistStationarySolver::resil_apply_boundary_x(
    simmpi::RankContext& ctx, int p, std::size_t nbi,
    std::span<const double> x_abs) {
  const auto up = static_cast<std::size_t>(p);
  const NeighborBlock& nb = layout_->rank(p).neighbors[nbi];
  auto& cache = ghost_x_[up][nbi];
  DSOUTH_CHECK(x_abs.size() == cache.size());
  const std::span<value_t> dx(resil_dx_[up].data(), cache.size());
  for (std::size_t g = 0; g < cache.size(); ++g) {
    dx[g] = x_abs[g] - cache[g];
    cache[g] = x_abs[g];
  }
  apply_incoming_delta(ctx, nb, dx);
}

void DistStationarySolver::resil_note_send(int p, std::size_t nbi) {
  last_send_step_[static_cast<std::size_t>(p)][nbi] = resil_step_count_;
}

void DistStationarySolver::resil_note_refresh(simmpi::RankContext& ctx,
                                              int p, std::size_t nbi) {
  resil_note_send(p, nbi);
  ++resil_stats_[static_cast<std::size_t>(p)].refreshes_sent;
  ctx.metric_add(m_resil_refreshes_, 1.0);
}

bool DistStationarySolver::resil_refresh_due(int p, std::size_t nbi) const {
  if (resil_.refresh_period <= 0) return false;
  const auto up = static_cast<std::size_t>(p);
  return resil_step_count_ - last_send_step_[up][nbi] >=
         resil_.refresh_period;
}

// The dispatch lambda below captures exactly one reference (8 bytes) to a
// stack-local Call struct so the std::function run_epoch receives fits in
// libstdc++'s small-buffer (16 bytes) — capturing the span + this + fn
// directly would heap-allocate on every epoch and break the hot path's
// zero-allocation guarantee (tested in test_wire).
void DistStationarySolver::for_each_rank(
    const std::function<void(simmpi::RankContext&, int)>& fn) {
  struct Call {
    simmpi::Runtime* rt;
    const std::function<void(simmpi::RankContext&, int)>* fn;
  } call{rt_, &fn};
  backend_->run_epoch(layout_->num_ranks(), [&call](int p) {
    // A permanently failed rank (faults::RankKill) stops relaxing the
    // moment it dies: no phases run, its window is never absorbed, peers
    // observe silence (the runtime swallows its traffic at the fence).
    // rank_dead is constant-false without a kill plan, so fault-free runs
    // take the exact pre-elastic path.
    if (call.rt->rank_dead(p)) return;
    simmpi::RankContext ctx(*call.rt, p);
    (*call.fn)(ctx, p);
  });
}

DistStepStats DistStationarySolver::merge_rank_stats() {
  DistStepStats total;
  for (auto& st : rank_stats_) {
    total.active_ranks += st.active_ranks;
    total.relaxations += st.relaxations;
    st = DistStepStats{};
  }
  return total;
}

void DistStationarySolver::apply_incoming_delta(simmpi::RankContext& ctx,
                                                const NeighborBlock& nb,
                                                std::span<const double> dx) {
  DSOUTH_CHECK(dx.size() == nb.ghost_rows.size());
  nb.a_pq.spmv_acc_scatter(-1.0, dx, nb.send_rows_local,
                           r_[static_cast<std::size_t>(ctx.rank())]);
  ctx.add_flops(2.0 * static_cast<double>(nb.a_pq.nnz()));
}

}  // namespace dsouth::dist
