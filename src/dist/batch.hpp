#pragma once

/// \file batch.hpp
/// Batched multi-tenant serving: run B independent systems ("tenants" —
/// same sparsity, different right-hand sides and/or coefficients) through
/// ONE simulated runtime, sharing epochs, fences, and physical messages
/// (DESIGN.md §14, docs/serving.md).
///
/// Why batching wins: the machine model charges per-message latency (α)
/// and a per-epoch synchronization term per fence. B solo runs pay both B
/// times; a batched run pays one fence per epoch for all tenants, and
/// co-scheduled tenants that stage to the same neighbor in the same epoch
/// share a single physical put (a wire tenant frame, wire.hpp), so the
/// physical message count drops below B × solo while every tenant's
/// *logical* record count is exactly its solo count. bench/throughput
/// measures both and gates on them.
///
/// Scheduling: each parallel step runs every non-converged tenant's phase
/// table (solver_base.hpp) inside shared epochs —
///
///   bulk-synchronous:  for e in [0, step_epochs()):
///                        for_each_rank(per-tenant rank_send(e), ship);
///                        fence;
///                        for_each_rank(demux absorb)
///   event-driven:      for_each_rank(demux absorb,
///                                    per-tenant rank_async_send, ship);
///                        fence
///
/// where "ship" merges what the tenants' ChannelSets buffered into one
/// tenant frame per (peer, tag) (wire::ChannelSet::ship_batch) and "demux
/// absorb" walks each received frame, dispatching every entry to its
/// tenant's absorb_payload. Tenants only share the wire — no solver state
/// crosses tenants — so each tenant's iterates, absorb order, and
/// floating-point operation order are exactly its solo run's, and the
/// per-tenant trajectories are bit-identical to B solo runs under the
/// default bulk-synchronous configuration (tests/test_batch.cpp).
///
/// Assembly: the runtime (fabric clock included), its attachments (node
/// topology, tracer, profiler, fault schedule) and the B solvers come from
/// dist::RunHarness (harness.hpp), the same stack every driver builds; so
/// do the CommStats totals and the trace/profiler teardown.
///
/// Convergence and dropout: tenants converge at different steps. A tenant
/// whose residual reaches its target stops scheduling (no begin_step, no
/// sends — it drops out of the frames) but keeps absorbing anything still
/// in flight to it (event-driven runs mature messages late), so survivors
/// are not perturbed: their per-tenant record streams are unchanged by a
/// neighbor tenant's exit.
///
/// B = 1 degenerates to the unbatched driver outright — run_batched
/// delegates to run_distributed, so a single-tenant "batched" run is
/// byte-identical to an unbatched one (iterates AND traces) by
/// construction, the same degeneracy contract flat topologies and
/// staleness-0 async follow. Residual-norm accounting for B >= 2 calls
/// each tenant's own global_residual_norm(): per step for the scheduled
/// tenants only (no other tenant records a norm), and for every tenant at
/// the start and after the loop (after the async drain, which may still
/// move a dropped-out tenant's residual).
///
/// Unsupported in batched runs (checked): watchdog and divergence_abort
/// (observer policies defined on a single trajectory), and
/// coalesce_messages for B >= 2 is subsumed — batch staging IS the
/// per-peer merge, so the option is ignored rather than composed.

#include <memory>
#include <optional>
#include <vector>

#include "dist/driver.hpp"

namespace dsouth::dist {

/// One tenant's system: right-hand side, initial guess, and an optional
/// per-tenant convergence target. The spans must outlive the run.
struct TenantSpec {
  std::span<const value_t> b;
  std::span<const value_t> x0;
  /// Stop scheduling this tenant when its ‖r‖₂ reaches this value;
  /// 0 inherits DistRunOptions::stop_at_residual (0 there too = run all
  /// steps).
  value_t stop_at_residual = 0.0;
};

/// Per-tenant outcome of a batched run.
struct TenantResult {
  /// ‖r‖₂ after k parallel steps of THIS tenant's schedule; index 0 = the
  /// initial state. A tenant that dropped out at step s has s + 1 entries.
  std::vector<double> residual_norm;
  /// Steps this tenant was scheduled for (== residual_norm.size() - 1).
  index_t steps = 0;
  /// True when the tenant reached its stop_at_residual target.
  bool converged = false;
  double final_residual = 0.0;
  std::vector<value_t> final_x;
  /// Row relaxations this tenant performed (cumulative).
  std::uint64_t relaxations = 0;
  /// Logical wire records shipped on the tenant's behalf — equal to the
  /// logical message count of the tenant's solo run (CommStats tenant
  /// tallies; tests pin the invariance).
  std::uint64_t wire_records = 0;
  /// Payload doubles shipped on the tenant's behalf (its share of the
  /// shared frames, excluding frame headers).
  std::uint64_t wire_doubles = 0;
};

/// Whole-batch outcome: shared-wire totals plus per-tenant results.
struct BatchRunResult {
  std::string method;
  int num_ranks = 0;
  index_t n = 0;            ///< rows per tenant system
  std::size_t batch = 0;    ///< B
  std::string backend;
  int num_threads = 1;
  double wall_seconds = 0.0;

  std::vector<TenantResult> tenants;

  /// Exact end-of-run CommStats totals for the SHARED wire (physical
  /// messages are shared frames; logical records sum the tenants').
  DistRunResult::CommTotals comm_totals;
  double model_time = 0.0;  ///< modeled seconds for the whole batch
  index_t steps_taken = 0;  ///< parallel steps until all tenants finished
  std::uint64_t epochs = 0; ///< runtime epochs the batch closed
  /// Tenant frames rejected whole by the demux (malformed under fault
  /// injection; every entry of a rejected frame is lost to its tenant and
  /// recovered by the resilient refresh path).
  std::uint64_t frames_rejected = 0;
  /// Merged trace when opt.trace.enabled, else null.
  std::shared_ptr<const trace::TraceLog> trace_log;
  /// B == 1 only: the delegated unbatched result, in full (the batched
  /// fields above are derived from it; byte-identity tests compare this
  /// against a direct run_distributed call).
  std::optional<DistRunResult> solo;
};

/// Run `specs.size()` tenants of `method` batched through one runtime.
/// `layouts` holds either ONE layout (all tenants share the matrix — the
/// different-RHS case) or one per tenant (different coefficients, same
/// sparsity); all layouts must share the rank count and communication
/// structure, which proxy-suite tenant sweeps guarantee by construction
/// (sparse/proxy_suite.hpp). B == 1 delegates to run_distributed.
BatchRunResult run_distributed_batch(DistMethod method,
                                     std::span<const DistLayout* const> layouts,
                                     std::span<const TenantSpec> specs,
                                     const DistRunOptions& opt = {});

}  // namespace dsouth::dist
