#pragma once

/// \file distributed_southwell.hpp
/// Distributed Southwell — the paper's contribution (§3, Algorithm 3).
///
/// Premise: neighbors' residual norms need not be known exactly to decide
/// who relaxes. Each rank p therefore keeps, per neighbor q:
///
///   z_q      — residual ghost layer: p's estimates of r_q at q's rows
///              coupled to p. When p relaxes, p updates z_q with purely
///              local data (the a_qp block), so Γ improves WITHOUT
///              communication; when q sends, z_q is overwritten exactly.
///   Γ[q]     — estimate of ‖r_q‖² (base value from q's last message,
///              locally adjusted through z_q's changes).
///   Γ̃[q]    — q's estimate of ‖r_p‖², tracked because every message
///              carries the sender's estimate of the receiver's norm.
///
/// Parallel step = two epochs:
///   Epoch A — ranks whose ‖r_p‖² ≥ max Γ relax; solve message to each
///     neighbor q carries (Δx boundary, exact boundary residuals of p,
///     new ‖r_p‖², Γ[q]²).
///   Epoch B — deadlock avoidance: if ‖r_p‖² < Γ̃[q]², q overestimates p
///     and might wait on p forever, so p sends an explicit residual update
///     — and ONLY then. This "only when necessary" rule is what makes
///     Distributed Southwell's communication a fraction of Parallel
///     Southwell's (paper Tables 2-3).

#include "dist/solver_base.hpp"

namespace dsouth::dist {

struct DistributedSouthwellOptions {
  /// Disable Epoch-B corrections (ablation; risks the §2.4 stall).
  bool enable_corrections = true;
  /// Disable the local ghost-layer estimate updates on relax (ablation;
  /// Γ then only refreshes when messages arrive, so estimates are staler
  /// and more corrections fire).
  bool enable_local_estimates = true;
  /// Extension (paper §5, the Ref. [8] "asynchronous variable threshold"
  /// direction): defer a solve message until the accumulated boundary Δx
  /// satisfies ‖Δx_acc‖₂ > send_threshold · ‖r_p‖₂. 0 sends always
  /// (Algorithm 3 exactly). With deferral, neighbor residuals are stale by
  /// the unsent contributions until the flush, so the local-residual
  /// exactness invariant holds only at flush boundaries — the
  /// ablation/extension bench quantifies the comm-vs-convergence trade.
  double send_threshold = 0.0;
  /// Robustness hardening for weakly-ordered delivery (simmpi
  /// DeliveryModel): every `heartbeat_period` parallel steps, ranks with a
  /// nonzero residual broadcast an explicit residual update regardless of
  /// the Γ̃ condition. Under message reordering the Γ̃ bookkeeping can
  /// become permanently wrong (a neighbor's overestimate that the owner
  /// believes was already corrected), which livelocks plain Algorithm 3;
  /// the heartbeat bounds that staleness. 0 disables (the paper's exact
  /// algorithm; safe under the ordered bulk-synchronous default).
  index_t heartbeat_period = 0;
};

class DistributedSouthwell final : public DistStationarySolver {
 public:
  DistributedSouthwell(const DistLayout& layout, simmpi::Runtime& rt,
                       std::span<const value_t> b,
                       std::span<const value_t> x0,
                       const DistributedSouthwellOptions& opt = {});

  const char* name() const override { return "DistributedSouthwell"; }

  /// Rejects the combination with send_threshold: deferral accumulates
  /// unsent Δx, which contradicts the resilient absolute-x encoding
  /// (every message must carry the full boundary state).
  void set_resilience(const ResilienceOptions& opt) override;

  /// Explicit residual-update messages sent so far (observer convenience;
  /// also available from the runtime's per-tag stats).
  std::uint64_t corrections_sent() const;

  // Stepping hooks (solver_base.hpp): begin_step advances the heartbeat
  // clock (epoch A never reads it, so the pre-epoch advance matches the
  // old between-epochs one); epoch 0 relaxes, epoch 1 corrects. The
  // event-driven step runs both in one epoch: the relax sets Γ̃[q] to the
  // new norm for every neighbor it messaged, so the correction right after
  // fires only for genuinely uncorrected overestimates.
  int step_epochs() const override { return 2; }
  void begin_step() override;
  void rank_send(int e, simmpi::RankContext& ctx, int p) override;

  /// Repartition recovery re-seeds Γ/Γ̃/z exactly (setup exchange) and
  /// restarts the correction/deferral counters.
  RecoveryContract recovery_contract() const override {
    RecoveryContract c;
    c.reseeds_estimates = true;
    c.restarts_counters = true;
    return c;
  }

 protected:
  // Both record types carry the sender's exact boundary residuals and
  // norms; only SolveUpdate carries boundary Δx.
  void absorb_record(simmpi::RankContext& ctx, int p, std::size_t nbi,
                     const wire::Record& rec) override;

  // Checkpoint stream: step_count, heartbeat, then per rank — the two
  // protocol counters, Γ², Γ̃², the z ghost layers, and (send_threshold
  // runs only) the pending Δx accumulators.
  void capture_extra(std::vector<double>& out) const override;
  void restore_extra(std::span<const double> in) override;

 private:
  // Wire records (encodings in wire/wire.hpp; nb = directed channel width):
  //   SOLVE p->q: SolveUpdate{norm2 = new ‖r_p‖², gamma2 = Γ_p[q]²,
  //               dx = boundary Δx, rb = exact r_p boundary values}.
  //   RES   p->q: Correction{norm2 = ‖r_p‖², gamma2 = Γ_p[q]²,
  //               rb = exact r_p boundary values}.
  void rank_relax(simmpi::RankContext& ctx, int p);
  void rank_correct(simmpi::RankContext& ctx, int p, bool heartbeat);

  DistributedSouthwellOptions opt_;
  std::vector<std::vector<value_t>> gamma2_;   // per rank/neighbor: ‖r_q‖² est
  std::vector<std::vector<value_t>> gtilde2_;  // per rank/neighbor: their est of me
  std::vector<std::vector<std::vector<value_t>>> ghost_;  // z_q layers
  // Per-rank Δz and boundary-Δx scratch for the local ghost-layer updates
  // (reused across neighbors and steps so the relax hot path never
  // allocates).
  std::vector<std::vector<value_t>> dz_scratch_, dx_scratch_;
  // send_threshold extension: per rank/neighbor accumulated unsent Δx
  // (aligned with send_rows_local).
  std::vector<std::vector<std::vector<value_t>>> pending_dx_;
  // Per-rank counters (each rank phase bumps only its own slot).
  std::vector<std::uint64_t> corrections_sent_, deferred_sends_;
  // Observability metrics (kInvalidMetric when tracing is off).
  trace::MetricId m_corrections_sent_ = trace::kInvalidMetric;
  trace::MetricId m_deferred_sends_ = trace::kInvalidMetric;
  index_t step_count_ = 0;
  bool heartbeat_ = false;  // this step's heartbeat flag (set by begin_step)

 public:
  std::uint64_t deferred_sends() const;
};

}  // namespace dsouth::dist
