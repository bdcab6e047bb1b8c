#pragma once

/// \file harness.hpp
/// RunHarness — the one place a distributed run's stack is built and torn
/// down, and the one place the observer-side step and stop rules live.
/// All three drivers use it: the classic loop (run_distributed), the
/// batched multi-tenant driver (run_distributed_batch, B ≥ 2 solvers over
/// one runtime) and the elastic checkpoint/restart driver (src/elastic).
/// Each constructs and attaches the exact same stack in the exact same
/// order:
///
///   runtime (fabric clock fixed at construction) → node topology →
///   tracer → profiler → fault schedule → [tenant count] → backend →
///   solver(s) → coalescing or batch staging → resilience
///
/// The order is load-bearing: the tracer must precede the solvers (ctors
/// register metrics). Sharing the assembly makes the elastic
/// driver's fault-free runs byte-identical to run_distributed, and a
/// batch compose with every attachment the way a solo run does, *by
/// construction* rather than by parallel maintenance (tests/test_elastic.cpp
/// and tests/test_batch.cpp pin both).

#include <memory>
#include <optional>
#include <vector>

#include "dist/batch.hpp"
#include "dist/driver.hpp"

namespace dsouth::dist {

class RunHarness {
 public:
  /// Build the full stack over `layout` per `opt` (see driver.hpp for the
  /// knob semantics). The layout must outlive the harness.
  RunHarness(DistMethod method, const DistLayout& layout,
             std::span<const value_t> b, std::span<const value_t> x0,
             const DistRunOptions& opt);
  /// One solver per tenant over one runtime. `layouts` holds one shared
  /// layout or one per tenant (run_distributed_batch checks they agree).
  /// With two or more tenants the runtime tallies per-tenant wire records,
  /// every solver stages into batch frames (in place of coalescing) and
  /// resilience applies to each; one tenant is exactly the solo stack.
  RunHarness(DistMethod method, std::span<const DistLayout* const> layouts,
             std::span<const TenantSpec> specs, const DistRunOptions& opt);
  ~RunHarness();

  RunHarness(const RunHarness&) = delete;
  RunHarness& operator=(const RunHarness&) = delete;

  simmpi::Runtime& runtime() { return rt_; }
  const simmpi::Runtime& runtime() const { return rt_; }
  simmpi::ExecutionBackend& backend() { return *backend_; }
  /// Tenant `t`'s solver (the only one in a solo run).
  DistStationarySolver& solver(std::size_t t = 0) { return *solvers_[t]; }
  trace::Tracer* tracer() { return tracer_.get(); }
  /// Null when the plan was all-zero (the fault-free fast path).
  const faults::FaultSchedule* fault_schedule() const {
    return fault_schedule_.get();
  }

  /// Fill the run-identification fields (method/num_ranks/n/backend) of a
  /// DistRunResult or BatchRunResult.
  template <class Result>
  void init_result(Result& result) const {
    result.method = solvers_.front()->name();
    result.num_ranks = rt_.num_ranks();
    result.n = solvers_.front()->layout().global_rows();
    result.backend = backend_->name();
    result.num_threads = backend_->num_threads();
  }

  /// Append one series entry (residual, model time, comm costs, carried
  /// relaxations) — the caller adds the step's count to relaxations.back().
  void record_state(DistRunResult& result) const;

  /// One timed parallel step of the solo solver: the wall-clock stopwatch
  /// and the profiler's kStep span cover solver().step() only; then the
  /// step's active ranks, a record_state entry and its relaxations are
  /// appended to `result`.
  void step(DistRunResult& result);

  /// Asynchronous epilogue: deliver everything still maturing and absorb
  /// it, so final_x and the totals describe a fully-drained run. No-op
  /// under bulk-synchronous delivery (including the staleness-0
  /// degeneracy).
  void drain_if_async();

  /// The end-of-run CommStats totals of the (shared) wire.
  DistRunResult::CommTotals comm_totals() const;

  /// comm_totals() plus the conditional summaries (fault / async / node)
  /// into `result`.
  void fill_totals(DistRunResult& result) const;

  /// End-of-run teardown: register the advisory prof.* gauges (profiler +
  /// tracer runs only), flush the tracer and detach profiler/tracer from
  /// the runtime. Returns the merged trace (null when untraced). Call
  /// once, last.
  std::shared_ptr<const trace::TraceLog> finish();
  /// finish() into result.trace_log.
  void finish(DistRunResult& result) { result.trace_log = finish(); }

 private:
  const DistRunOptions* opt_;
  simmpi::Runtime rt_;
  std::optional<simmpi::NodeTopology> run_topo_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<faults::FaultSchedule> fault_schedule_;
  std::unique_ptr<simmpi::ExecutionBackend> backend_;
  std::vector<std::unique_ptr<DistStationarySolver>> solvers_;
};

/// Observer-side stop rules of a single-trajectory run, judged on the
/// recorded residual series after every step: stop_at_residual,
/// divergence_abort, and the watchdog's non-finite, growth and stall
/// rules (docs/resilience.md). Batched runs use per-tenant targets only.
class StopRules {
 public:
  /// `r0` is the initial residual the growth rule compares against.
  StopRules(const DistRunOptions& opt, double r0)
      : opt_(&opt), r0_(r0), best_(r0) {}

  /// Judge result.residual_norm.back() after steps_taken() steps; true =
  /// stop. A watchdog stop is reported in result.watchdog.
  bool stop(DistRunResult& result);

  /// Roll the stall bookkeeping back with a rolled-back `series`.
  void rewind(std::span<const double> series);

 private:
  const DistRunOptions* opt_;
  double r0_;
  double best_;
  index_t steps_since_best_ = 0;
};

}  // namespace dsouth::dist
