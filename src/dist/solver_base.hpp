#pragma once

/// \file solver_base.hpp
/// Common state and helpers for the distributed block solvers
/// (Algorithms 1–3 of the paper). Each solver advances one *parallel step*
/// per `step()` call; a step is one or two simmpi epochs depending on the
/// method.
///
/// The algorithms share one skeleton — relax a subdomain, ship boundary
/// Δx, absorb what arrives — and this class owns all of it: the step
/// schedule, the event-driven fusion of the epochs, the receive path
/// (resilient envelope gating, decoding against the solver's wire family,
/// applying incoming Δx) and the relaxation bookkeeping. A concrete solver
/// supplies only its per-epoch send rule (rank_send) and what one decoded
/// record does to its state (absorb_record).
///
/// SPMD structure: a step's work is decomposed into per-rank phases —
/// `rank_*`(RankContext&, p) member functions that touch only rank-p state
/// (x_[p], r_[p], scratch_[p], the solver's per-rank estimate arrays) plus
/// the rank-scoped runtime facade. `for_each_rank` hands those phases to
/// the solver's ExecutionBackend, so the same phase code runs sequentially
/// or on a thread pool with bit-identical results (the runtime merges
/// staged effects deterministically at the fence). Ranks never read each
/// other's arrays except through simmpi messages; the tests enforce the
/// convergence consequences of that discipline.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dist/layout.hpp"
#include "simmpi/execution.hpp"
#include "simmpi/rank_context.hpp"
#include "simmpi/runtime.hpp"
#include "wire/comm_plan.hpp"
#include "wire/wire.hpp"

namespace dsouth::dist {

/// What one parallel step did (for the driver's records).
struct DistStepStats {
  index_t active_ranks = 0;  ///< ranks that relaxed their subdomain
  index_t relaxations = 0;   ///< rows relaxed (sum of active subdomains)
};

/// Solver-side fault recovery (docs/resilience.md). When enabled, every
/// message ships in a sequenced wire-v2 envelope
/// (ChannelSet::set_sequencing) and the Δx payload fields carry ABSOLUTE
/// boundary x values instead of deltas. The receiver keeps a per-channel
/// cache of the sender's boundary x and applies the difference, which
/// makes absorption idempotent (a duplicated message applies a zero
/// delta) and self-healing (the message after a drop carries the full
/// accumulated change). Duplicated, reordered, truncated, and
/// bit-corrupted payloads are rejected by sequence gating and the
/// envelope checksum; estimate staleness from dropped messages is bounded
/// by a periodic full-state refresh on the conditional-send solvers
/// (Parallel/Distributed Southwell).
struct ResilienceOptions {
  bool enabled = false;
  /// Refresh-resend period, in parallel steps: a rank that has not sent a
  /// full-state (x-bearing) message to a neighbor for this many steps
  /// resends one unconditionally, bounding how stale a neighbor's ghost
  /// cache and Γ estimates can become after message loss. 0 disables the
  /// refresh (sequence gating and absolute-x encoding stay active).
  /// Block Jacobi and Multicolor Block GS send full state on every relax
  /// turn, so the period only affects PS and DS.
  index_t refresh_period = 8;
};

/// Counters kept by the resilient receive/refresh paths (summed over
/// ranks by DistStationarySolver::resilience_stats).
struct ResilienceStats {
  std::uint64_t rejected_corrupt = 0;  ///< decode failures (checksum, ...)
  std::uint64_t rejected_stale = 0;    ///< duplicate / out-of-order seq
  std::uint64_t refreshes_sent = 0;    ///< proactive full-state resends
};

/// What a concrete solver needs from an elastic *repartition* recovery
/// (src/elastic, docs/resilience.md). Checkpoint/restore on an UNCHANGED
/// layout needs none of this — capture_state/restore_state round-trip
/// every field exactly. A repartition changes the layout, so per-neighbor
/// state cannot be carried over; the recovering driver constructs a fresh
/// solver from the restored global iterate, and this contract tells it
/// what that fresh construction re-derives and what is genuinely reset.
struct RecoveryContract {
  /// Residuals are rebuilt exactly from A, b and the restored iterate by
  /// the constructor's setup phase (true for every stationary solver
  /// here — local residuals are exact by construction).
  bool rebuilds_residual = true;
  /// Per-neighbor estimates (Γ, Γ̃, residual ghost layers) are re-seeded
  /// exactly by the constructor's setup exchange, so no estimate
  /// staleness survives a recovery (the Southwell methods).
  bool reseeds_estimates = false;
  /// The relaxation schedule restarts from its initial phase (MCBGS: the
  /// color rotation restarts at color 0). Convergence is unaffected; the
  /// sweep order is perturbed once.
  bool restarts_schedule = false;
  /// Monotonic protocol counters (DS corrections_sent / deferred_sends)
  /// restart at 0 in the fresh solver; the elastic driver accumulates
  /// them across generations for its report.
  bool restarts_counters = false;
};

/// Setup-phase helper shared with greedy_schwarz: r_p -= A_pp x_p +
/// Σ_q A_pq x_q for rank p. Reads neighbor x directly (the paper's
/// artifact likewise distributes the assembled system before the solve
/// phase); per-rank, so a backend may run it for all ranks concurrently
/// as long as each concurrent call gets its own `ghost_buf` (scratch for
/// the gathered ghost x, reused across neighbors and calls).
void subtract_a_times_x_local(const DistLayout& layout,
                              const std::vector<std::vector<value_t>>& x,
                              std::vector<value_t>& r_p, int p,
                              std::vector<value_t>& ghost_buf);

class DistStationarySolver {
 public:
  /// b and x0 are global vectors; they are scattered across ranks here.
  /// `family` is the record family the solver's messages decode as.
  DistStationarySolver(const DistLayout& layout, simmpi::Runtime& rt,
                       wire::Family family, std::span<const value_t> b,
                       std::span<const value_t> x0);
  virtual ~DistStationarySolver() = default;

  DistStationarySolver(const DistStationarySolver&) = delete;
  DistStationarySolver& operator=(const DistStationarySolver&) = delete;

  /// Advance one parallel step (including its fences).
  ///
  /// Under bulk-synchronous delivery this is the paper's stepping: one or
  /// two epochs with every message delivered at its closing fence. On an
  /// async runtime (async_mode()) every solver switches to
  /// single-epoch relax-on-arrival stepping: absorb whatever matured into
  /// the window, relax on the (possibly stale, staleness-bounded) state,
  /// fold any phase-B traffic into the same epoch, fence once.
  ///
  /// Non-virtual: the step schedule is a fixed phase table the base class
  /// drives through the stepping hooks below, so an external coordinator
  /// (batch.hpp) can interleave several solvers' phases inside shared
  /// epochs and a solo step() stays call-for-call what it always was.
  DistStepStats step();
  virtual const char* name() const = 0;

  /// Absorb every message currently sitting in the windows, without
  /// fencing. Asynchronous runs call this after Runtime::drain_delayed()
  /// so the final iterate and residuals reflect all in-flight traffic;
  /// bulk-synchronous steps never leave messages behind.
  void absorb_all();

  // --- Stepping hooks -----------------------------------------------------
  // The phase table step() executes, exposed so the batched multi-tenant
  // coordinator (batch.hpp) can run B solvers' phases inside SHARED epochs:
  //
  //   begin_step()
  //   bulk-synchronous:  for e in [0, step_epochs()):
  //                        for_each_rank(rank_send(e)); fence;
  //                        for_each_rank(rank_absorb)
  //   event-driven:      for_each_rank(rank_absorb; rank_async_send); fence
  //
  // The base owns rank_async_send (every epoch's rank_send, fused),
  // rank_absorb and absorb_payload (envelope gating and decoding); a
  // concrete solver implements rank_send and absorb_record, and may
  // extend begin_step and step_epochs. Every hook preserves the SPMD
  // discipline (rank phases touch only rank-p state). Calling them outside
  // step()/the coordinator's schedule voids the byte-identity guarantees.

  /// Per-step bookkeeping that runs once, before any epoch (resilience
  /// step counter; DS advances its heartbeat clock, MCBGS its color).
  virtual void begin_step() { resil_begin_step(); }

  /// Number of bulk-synchronous epochs per parallel step (1 for Block
  /// Jacobi / Multicolor Block GS, 2 for the Southwell methods).
  virtual int step_epochs() const { return 1; }

  /// Rank p's send phase of epoch `e` (relax / residual-update / correct).
  /// A rank with nothing to do in this epoch (wrong color, criterion not
  /// met, feature disabled) returns without observable effect.
  virtual void rank_send(int e, simmpi::RankContext& ctx, int p) = 0;

  /// Rank p's fused send phase of an event-driven step: rank_send(e) for
  /// every e < step_epochs(), in order, inside the one epoch (the absorb
  /// half is the shared rank_absorb, run first by the schedule). After
  /// the relax epoch the advertised state is current, so the later
  /// epochs' sends fire only for what absorption alone changed.
  void rank_async_send(simmpi::RankContext& ctx, int p);

  /// Rank p's absorb phase: dispatch every window message to
  /// absorb_payload by sender channel, trace, consume.
  void rank_absorb(simmpi::RankContext& ctx, int p);

  /// Apply one received payload on channel (p, neighbor nbi). The payload
  /// is whatever the sender's ChannelSet shipped: a bare record, a
  /// coalesced frame, or a sequenced envelope. Resilient solvers gate the
  /// envelope (resil_accept) and decode its one record; otherwise every
  /// record of the payload is decoded in send order. Each goes to
  /// absorb_record. The batch coordinator calls this directly with
  /// tenant-frame bodies.
  void absorb_payload(simmpi::RankContext& ctx, int p, std::size_t nbi,
                      std::span<const double> payload);

  /// Sum the per-rank step-stat slots into one record and reset them
  /// (step() calls this last; the coordinator calls it per tenant).
  DistStepStats merge_rank_stats();

  /// Record the rank's absorb phase; call *before* ctx.consume(). Emits a
  /// kAbsorb event (a0 = messages in the window, a1 = total payload
  /// doubles) when the window is non-empty and bumps
  /// "solver.absorbed_msgs". Public for the coordinator's demux absorb.
  void trace_absorb(simmpi::RankContext& ctx);

  /// Rank p's wire channels (the coordinator toggles batch staging and
  /// ships the per-tenant buffers from here).
  wire::ChannelSet& channel(int p) { return channels_[static_cast<std::size_t>(p)]; }

  /// Toggle batch-staging mode (wire::ChannelSet::set_batch_staging) on
  /// every rank's channel set. Call between steps only.
  void set_batch_staging(bool on);
  // ------------------------------------------------------------------------

  const DistLayout& layout() const { return *layout_; }
  simmpi::Runtime& runtime() { return *rt_; }

  /// Select the backend that executes the per-rank phases. Not owned; must
  /// outlive the solver. Defaults to a private sequential backend.
  void set_backend(simmpi::ExecutionBackend& backend) { backend_ = &backend; }
  const simmpi::ExecutionBackend& backend() const { return *backend_; }

  /// Toggle per-neighbor message coalescing (wire/comm_plan.hpp) on every
  /// rank's channel set. Call between steps only (the channels must hold
  /// no buffered records). Default off: direct mode is byte-identical to
  /// the legacy ad-hoc payload layouts.
  void set_message_coalescing(bool on);
  bool message_coalescing() const;

  /// Enable solver-side fault recovery (see ResilienceOptions). Must be
  /// called before the first step() — the receiver's boundary-x caches are
  /// initialized from the current iterate, which both ends only agree on
  /// at setup. Mutually exclusive with message coalescing (sequenced
  /// envelopes wrap exactly one record). Virtual so solvers with
  /// incompatible extensions can reject the combination.
  virtual void set_resilience(const ResilienceOptions& opt);
  bool resilient() const { return resil_.enabled; }
  const ResilienceOptions& resilience() const { return resil_; }

  /// Totals of the resilient-path counters across ranks (zeros when
  /// resilience is off).
  ResilienceStats resilience_stats() const;

  // --- Checkpoint/restore (src/elastic) -----------------------------------

  /// Deterministic snapshot of every mutable solver field that survives a
  /// step boundary. Scratch buffers (scratch_, dz, per-sweep snapshots)
  /// and the per-step rank_stats_ slots are transient between steps and
  /// deliberately excluded. `extra` is the concrete solver's private
  /// state, serialized as a flat double stream whose layout only
  /// capture_extra/restore_extra of the same solver class on the same
  /// DistLayout understand (integers travel bit-cast, never rounded).
  struct SolverState {
    index_t resil_step_count = 0;
    std::vector<std::vector<value_t>> x;  ///< per-rank iterate
    std::vector<std::vector<value_t>> r;  ///< per-rank residual
    /// Per rank, per peer: the channel's next envelope sequence number
    /// (captured even when sequencing is off — zeros round-trip).
    std::vector<std::vector<std::uint64_t>> send_seq;
    // Resilient-mode caches (all empty when resilience is off).
    std::vector<std::vector<std::vector<value_t>>> ghost_x;
    std::vector<std::vector<std::uint64_t>> recv_min_seq;
    std::vector<std::vector<index_t>> last_send_step;
    std::vector<ResilienceStats> resil_stats;
    /// Concrete-solver extension (capture_extra/restore_extra).
    std::vector<double> extra;
  };

  /// Capture the solver's state between steps (no put phase in flight: the
  /// channels must hold no buffered records or unsealed envelopes).
  /// Restoring the result into a solver of the same class on the same
  /// layout — along with the matching simmpi::RuntimeState — resumes the
  /// run byte-identically (tests/test_elastic.cpp pins this across
  /// backends and feature combinations).
  SolverState capture_state() const;

  /// Inverse of capture_state. The solver must have the same class,
  /// layout, and feature configuration (resilience/coalescing) as the one
  /// that captured; mismatches are checked fatal, not recovered.
  void restore_state(const SolverState& state);

  /// What this solver needs from a repartition recovery (see
  /// RecoveryContract). The base default describes Block Jacobi.
  virtual RecoveryContract recovery_contract() const { return {}; }
  // ------------------------------------------------------------------------

  /// Observer-side exact global residual norm (gathers local residuals;
  /// local residuals are exact by construction in all three methods).
  double global_residual_norm() const;

  /// Observer-side gather of the current iterate.
  std::vector<value_t> gather_x() const;

  std::span<const value_t> local_x(int p) const { return x_[p]; }
  std::span<const value_t> local_r(int p) const { return r_[p]; }

 protected:
  /// True when the runtime has an async window — the cue for step()
  /// implementations to take their single-epoch async path.
  bool async_mode() const { return rt_->async_delivery(); }

  /// Run fn(ctx, p) for every rank p via the backend (one epoch phase).
  void for_each_rank(
      const std::function<void(simmpi::RankContext&, int)>& fn);

  /// Observability hook (docs/observability.md; trace_absorb above is its
  /// public sibling). An inlined no-op on untraced runs and never touches
  /// the simulation state, so enabling tracing cannot change results.
  ///
  /// Record that rank `ctx.rank()` relaxed `rows` rows this epoch: emits a
  /// kRelax event (a0 = rows, a1 = the rank's new local ‖r‖² — computed
  /// here, observer-side, only when tracing) and bumps the
  /// "solver.relaxed_rows"/"solver.rank_relaxations" counters.
  void trace_relax(simmpi::RankContext& ctx, index_t rows);

  /// Host-profiling span for one of rank p's solver phases (prof/prof.hpp;
  /// the trace_relax idiom: an inlined null test with no profiler
  /// attached, and never a feedback path into the simulation). Returned by
  /// value through guaranteed elision — bind it to a local:
  ///   const auto span = prof_phase(p, prof::PhaseId::kRelax);
  prof::ScopedPhase prof_phase(int p, prof::PhaseId phase) const {
    return prof::ScopedPhase(rt_->profiler(), p, phase);
  }

  /// Append the concrete solver's private mutable state to the checkpoint
  /// stream (capture_state). Default: stateless beyond the base fields
  /// (Block Jacobi). Implementations must write a layout-determined,
  /// fixed-order stream and bit-cast any integer fields.
  virtual void capture_extra(std::vector<double>& out) const {
    (void)out;
  }

  /// Inverse of capture_extra; `in` is exactly what capture_extra wrote.
  virtual void restore_extra(std::span<const double> in);

  /// Apply one decoded record received by rank p from neighbor nbi (the
  /// solver's per-record semantics; absorb_payload has already gated and
  /// decoded it). Boundary x updates go through absorb_boundary_dx.
  virtual void absorb_record(simmpi::RankContext& ctx, int p,
                             std::size_t nbi, const wire::Record& rec) = 0;

  /// Apply a record's boundary field `dx` from neighbor nbi of rank p:
  /// resil_apply_boundary_x when resilient (the field is absolute x),
  /// apply_incoming_delta otherwise (the field is Δx).
  void absorb_boundary_dx(simmpi::RankContext& ctx, int p, std::size_t nbi,
                          std::span<const double> dx);

  /// One relaxation of rank p's (nonempty) subdomain: snapshot x_p into
  /// scratch_[p], one local Gauss–Seidel sweep, charge its flops, count it
  /// in rank_stats_ and trace it. scratch_[p] keeps the pre-sweep x until
  /// the rank's next relaxation — the reference encode_boundary_dx uses.
  void relax_subdomain(simmpi::RankContext& ctx, int p);

  /// Write what rank p ships toward neighbor nb for its boundary rows
  /// after relax_subdomain, in nb.send_rows_local order: absolute x when
  /// resilient (self-healing across message loss), x − scratch_[p] (Δx)
  /// otherwise.
  void encode_boundary_dx(int p, const NeighborBlock& nb,
                          std::span<double> dx) const;

  // --- Resilient-mode helpers (no-ops / unused unless resilient()). Each
  // touches only rank-p slots, preserving the SPMD phase discipline.

  /// Bump the solver's internal step counter; every step() implementation
  /// calls this first (it also locks set_resilience).
  void resil_begin_step() { ++resil_step_count_; }

  /// Record that rank p sent a full-state (x-bearing) message to neighbor
  /// nbi this step — resets the channel's refresh clock.
  void resil_note_send(int p, std::size_t nbi);

  /// Same, for a proactive refresh (also counts refreshes_sent).
  void resil_note_refresh(simmpi::RankContext& ctx, int p, std::size_t nbi);

  /// True when rank p owes neighbor nbi a full-state refresh: no x-bearing
  /// message for >= refresh_period steps (and the period is nonzero).
  bool resil_refresh_due(int p, std::size_t nbi) const;

  const DistLayout* layout_;
  simmpi::Runtime* rt_;
  wire::Family family_;
  std::vector<std::vector<value_t>> x_, r_;
  /// Per-rank wire channels over the layout's CommPlan (channel index k ==
  /// neighbor index k). Each rank phase may touch only its own slot.
  std::vector<wire::ChannelSet> channels_;
  /// Per-rank pre-sweep snapshot of x_p (relax_subdomain; sized to the
  /// rank's subdomain) — each rank phase may use only its own slot.
  std::vector<std::vector<value_t>> scratch_;
  /// Per-rank step accounting, merged by merge_rank_stats().
  std::vector<DistStepStats> rank_stats_;
  /// Metric ids registered at construction when the runtime carries a
  /// tracer (trace::kInvalidMetric otherwise — all bumps no-op).
  trace::MetricId m_relaxed_rows_ = trace::kInvalidMetric;
  trace::MetricId m_rank_relaxations_ = trace::kInvalidMetric;
  trace::MetricId m_absorbed_msgs_ = trace::kInvalidMetric;

  // --- Resilient-mode state (sized by set_resilience; empty otherwise).
  ResilienceOptions resil_{};
  index_t resil_step_count_ = 0;
  /// Per rank, per neighbor: cached boundary x of that neighbor, aligned
  /// with NeighborBlock::ghost_rows (what the last accepted message said).
  std::vector<std::vector<std::vector<value_t>>> ghost_x_;
  /// Per rank, per neighbor: lowest acceptable envelope sequence number
  /// (last accepted + 1); anything below is a duplicate or stale.
  std::vector<std::vector<std::uint64_t>> recv_min_seq_;
  /// Per rank, per neighbor: step index of the last x-bearing send.
  std::vector<std::vector<index_t>> last_send_step_;
  /// Per-rank Δx scratch for resil_apply_boundary_x (sized to the rank's
  /// widest incoming channel so the absorb path never allocates).
  std::vector<std::vector<value_t>> resil_dx_;
  /// Per-rank counters (each rank phase bumps only its own slot).
  std::vector<ResilienceStats> resil_stats_;
  trace::MetricId m_resil_rejected_ = trace::kInvalidMetric;
  trace::MetricId m_resil_refreshes_ = trace::kInvalidMetric;

 private:
  // Receive-path steps behind absorb_payload / absorb_boundary_dx.
  /// r_p -= A_pq · Δx_q and charge the flops; dx is ordered by the
  /// neighbor's ghost_rows channel convention. Touches only the rows in
  /// nb.send_rows_local (a_pq's rows, layout.hpp).
  void apply_incoming_delta(simmpi::RankContext& ctx, const NeighborBlock& nb,
                            std::span<const double> dx);

  /// Validate one received payload on channel (p, neighbor nbi): decode
  /// the wire-v2 envelope and gate on its sequence number. Returns the
  /// record body, or an empty span when the payload was rejected
  /// (corrupt/truncated/stale/duplicate — counted in resil_stats_[p]).
  std::span<const double> resil_accept(simmpi::RankContext& ctx, int p,
                                       std::size_t nbi,
                                       std::span<const double> payload);

  /// Absorb an absolute-boundary-x payload from neighbor nbi of rank p:
  /// apply dx = x_abs - cached ghost x to r_p and refresh the cache.
  /// Idempotent — reapplying the same x_abs is a zero delta.
  void resil_apply_boundary_x(simmpi::RankContext& ctx, int p,
                              std::size_t nbi,
                              std::span<const double> x_abs);

  std::unique_ptr<simmpi::ExecutionBackend> owned_backend_;
  simmpi::ExecutionBackend* backend_;
};

}  // namespace dsouth::dist
