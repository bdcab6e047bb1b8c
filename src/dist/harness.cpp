#include "dist/harness.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "wire/comm_plan.hpp"

namespace dsouth::dist {

RunHarness::RunHarness(DistMethod method, const DistLayout& layout,
                       std::span<const value_t> b,
                       std::span<const value_t> x0,
                       const DistRunOptions& opt)
    : RunHarness(method, std::array<const DistLayout*, 1>{&layout},
                 std::array<TenantSpec, 1>{TenantSpec{b, x0}}, opt) {}

RunHarness::RunHarness(DistMethod method,
                       std::span<const DistLayout* const> layouts,
                       std::span<const TenantSpec> specs,
                       const DistRunOptions& opt)
    : opt_(&opt), rt_(layouts[0]->num_ranks(), opt.machine, opt.delivery) {
  const DistLayout& layout = *layouts[0];
  const bool batched = specs.size() > 1;
  // The delivery policy must be attached before the tracer (so the async
  // metrics register) and before the solver (so async_mode() is stable
  // from construction on).
  if (opt.async) {
    simmpi::EventDrivenOptions eo;
    eo.seed = opt.async_seed;
    eo.min_latency_epochs = opt.async_min_latency;
    eo.max_latency_epochs = opt.async_max_latency;
    eo.max_staleness = opt.max_staleness;
    async_policy_ = std::make_unique<simmpi::EventDrivenPolicy>(eo);
    rt_.set_delivery_policy(async_policy_.get());
  }
  // Node-aware topology. Run options take precedence over a topology
  // already attached to the layout; a locally-built topology must outlive
  // the runtime, hence the member optional. Flat topologies degenerate to
  // "detached" inside the runtime, so attaching one here is harmless (and
  // byte-identical to not attaching).
  const int p = layout.num_ranks();
  if (!opt.node_map.empty()) {
    run_topo_.emplace(simmpi::NodeTopology::explicit_map(opt.node_map));
  } else if (opt.ranks_per_node > 0 || opt.num_nodes > 0) {
    run_topo_.emplace(simmpi::NodeTopology::ranks_per_node(
        p, opt.ranks_per_node > 0 ? opt.ranks_per_node
                                  : (p + opt.num_nodes - 1) / opt.num_nodes));
  }
  const simmpi::NodeTopology* topo =
      run_topo_ ? &*run_topo_ : layout.node_topology();
  if (topo) {
    simmpi::NodeRoutingOptions nro;
    nro.route_via_leaders = opt.node_route;
    if (opt.node_route) {
      // The runtime only needs the dense channel-count matrix (to size
      // forward-frame bitmaps); the full NodeCommPlan stays a wire-layer
      // object.
      nro.pair_channel_counts =
          wire::NodeCommPlan(layout.comm_plan(), *topo)
              .pair_channel_counts();
    }
    rt_.set_node_topology(topo, std::move(nro));
  }
  // The tracer must be attached before the solver is constructed so solver
  // ctors can register their metrics.
  if (opt.trace.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(p, opt.trace);
    rt_.set_tracer(tracer_.get());
  }
  // Host profiling is attach-by-pointer like the tracer, but inverted:
  // the tracer records what the simulation *modeled*, the profiler records
  // what the host *spent*, and nothing it measures feeds back in.
  if (opt.profiler) rt_.set_profiler(opt.profiler);
  // A fault schedule is attached only for a nonzero plan, so the default
  // path stays byte-identical to a fault-free build (no extra RNG draws,
  // no extra metrics).
  if (opt.faults.any()) {
    fault_schedule_ = std::make_unique<faults::FaultSchedule>(opt.faults, p);
    rt_.set_fault_schedule(fault_schedule_.get());
  }
  // The tenant count sizes the runtime's per-tenant record tallies, which
  // the solvers' batch staging feeds.
  if (batched) rt_.set_num_tenants(specs.size());
  backend_ = simmpi::make_backend(opt.backend, opt.num_threads);
  // Async delivery forces the resilient receive path: maturation is
  // out-of-order by construction, and the seq-gated absolute-x encoding is
  // what keeps ghost caches and DS's Γ̃ bookkeeping correct under it.
  ResilienceOptions resilience = opt.resilience;
  if (opt.async) resilience.enabled = true;
  DSOUTH_CHECK_MSG(batched || !(resilience.enabled && opt.coalesce_messages),
                   "resilience and message coalescing are incompatible");
  // MetricsRegistry registration is idempotent by name, so B solver
  // constructors share one set of metric slots.
  solvers_.reserve(specs.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const DistLayout& lt = layouts.size() == 1 ? layout : *layouts[t];
    solvers_.push_back(
        make_dist_solver(method, lt, rt_, specs[t].b, specs[t].x0, opt));
    solvers_.back()->set_backend(*backend_);
    // Batch staging subsumes opt.coalesce_messages: ship_batch IS the
    // per-peer merge (one tenant frame per (peer, tag)), so the
    // coalescing flag is intentionally not forwarded to a batch.
    if (batched) {
      solvers_.back()->set_batch_staging(true);
    } else if (opt.coalesce_messages) {
      solvers_.back()->set_message_coalescing(true);
    }
  }
  if (resilience.enabled) {
    for (auto& s : solvers_) s->set_resilience(resilience);
  }
}

RunHarness::~RunHarness() {
  // finish() normally detaches; cover early exits so the runtime never
  // outlives an attachment it doesn't own.
  if (opt_->profiler) rt_.set_profiler(nullptr);
  if (tracer_) rt_.set_tracer(nullptr);
}

void RunHarness::record_state(DistRunResult& result) const {
  result.residual_norm.push_back(solvers_.front()->global_residual_norm());
  result.model_time.push_back(rt_.model_time_seconds());
  result.comm_cost.push_back(rt_.stats().comm_cost());
  result.solve_comm.push_back(rt_.stats().comm_cost(simmpi::MsgTag::kSolve));
  result.res_comm.push_back(rt_.stats().comm_cost(simmpi::MsgTag::kResidual));
  result.relaxations.push_back(
      result.relaxations.empty() ? 0.0 : result.relaxations.back());
}

void RunHarness::step(DistRunResult& result) {
  // Time the parallel step only — the observer-side recording below is
  // backend-independent bookkeeping.
  util::Stopwatch wall;
  const DistStepStats stats = [&] {
    const prof::ScopedPhase prof_step(opt_->profiler, rt_.num_ranks(),
                                      prof::PhaseId::kStep);
    return solvers_.front()->step();
  }();
  result.wall_seconds += wall.seconds();
  result.active_ranks.push_back(stats.active_ranks);
  record_state(result);
  // Integer counts stay exact in a double far past any run's total.
  result.relaxations.back() += static_cast<double>(stats.relaxations);
}

void RunHarness::drain_if_async() {
  if (!rt_.async_delivery()) return;
  // Gated on the runtime, not opt.async: a staleness-0 policy degenerates
  // to bulk-synchronous delivery and must add nothing to the trace.
  rt_.drain_delayed();
  solvers_.front()->absorb_all();
}

DistRunResult::CommTotals RunHarness::comm_totals() const {
  const simmpi::CommStats& cs = rt_.stats();
  DistRunResult::CommTotals ct;
  ct.msgs = cs.total_messages();
  ct.bytes = cs.total_bytes();
  ct.msgs_solve = cs.total_messages(simmpi::MsgTag::kSolve);
  ct.msgs_residual = cs.total_messages(simmpi::MsgTag::kResidual);
  ct.msgs_other = cs.total_messages(simmpi::MsgTag::kOther);
  ct.msgs_logical = cs.logical_messages();
  ct.msgs_logical_solve = cs.logical_messages(simmpi::MsgTag::kSolve);
  ct.msgs_logical_residual = cs.logical_messages(simmpi::MsgTag::kResidual);
  return ct;
}

void RunHarness::fill_totals(DistRunResult& result) const {
  const simmpi::CommStats& cs = rt_.stats();
  result.comm_totals = comm_totals();
  if (fault_schedule_) {
    FaultSummary fs;
    fs.msgs_dropped = cs.dropped_messages();
    fs.msgs_duplicated = cs.duplicated_messages();
    fs.msgs_corrupted = cs.corrupted_messages();
    fs.msgs_dead_dropped = cs.dead_dropped_messages();
    const ResilienceStats rs = solvers_.front()->resilience_stats();
    fs.rejected_corrupt = rs.rejected_corrupt;
    fs.rejected_stale = rs.rejected_stale;
    fs.refreshes_sent = rs.refreshes_sent;
    result.fault_summary = fs;
  }
  if (rt_.async_delivery()) {
    AsyncTotals at;
    at.delivered = cs.async_delivered();
    at.staleness_sum = cs.async_staleness_sum();
    at.staleness_max = cs.async_staleness_max();
    at.epochs = rt_.epochs_completed();
    result.async_totals = at;
  }
  if (rt_.node_topology()) {
    NodeTotals nt;
    nt.msgs_intra = cs.intra_messages();
    nt.bytes_intra = cs.intra_bytes();
    nt.msgs_inter = cs.inter_messages();
    nt.bytes_inter = cs.inter_bytes();
    nt.forward_frames = cs.forward_frames();
    nt.forwarded_records = cs.forwarded_records();
    result.node_totals = nt;
  }
}

std::shared_ptr<const trace::TraceLog> RunHarness::finish() {
  if (opt_->profiler && tracer_) {
    // Advisory prof.* gauges, rank-0 slot. Registered only when a profiler
    // rides along, so prof-off traces stay byte-identical to pre-profiling
    // builds. The values are the profiler's own alloc-window deltas — the
    // same numbers the prof record exports, which is exactly what
    // `dsouth-analyze -check -prof-record` cross-checks.
    auto& m = tracer_->metrics();
    const auto id_track =
        m.register_metric("prof.alloc_tracking", trace::MetricKind::kGauge);
    const auto id_allocs =
        m.register_metric("prof.allocs_total", trace::MetricKind::kGauge);
    const auto id_bytes =
        m.register_metric("prof.allocs_bytes", trace::MetricKind::kGauge);
    const auto id_frees =
        m.register_metric("prof.frees_total", trace::MetricKind::kGauge);
    m.set(id_track, 0, opt_->profiler->alloc_tracking() ? 1.0 : 0.0);
    m.set(id_allocs, 0,
          static_cast<double>(opt_->profiler->allocs_total()));
    m.set(id_bytes, 0, static_cast<double>(opt_->profiler->allocs_bytes()));
    m.set(id_frees, 0, static_cast<double>(opt_->profiler->frees_total()));
  }
  if (opt_->profiler) rt_.set_profiler(nullptr);
  if (!tracer_) return nullptr;
  tracer_->flush();
  auto log = std::make_shared<const trace::TraceLog>(tracer_->take_log());
  rt_.set_tracer(nullptr);
  tracer_.reset();
  return log;
}

bool StopRules::stop(DistRunResult& result) {
  const double rn = result.residual_norm.back();
  if (opt_->stop_at_residual > 0.0 && rn <= opt_->stop_at_residual) {
    return true;
  }
  if (opt_->divergence_abort > 0.0 && rn >= opt_->divergence_abort) {
    return true;
  }
  if (!opt_->watchdog.enabled) return false;
  // Observer-side divergence watchdog: a faulted run stops with a report
  // instead of hanging or overflowing.
  const auto step = static_cast<index_t>(result.steps_taken());
  if (!std::isfinite(rn)) {
    result.watchdog = {true, "non-finite residual", step};
    return true;
  }
  if (rn > opt_->watchdog.growth_factor * r0_) {
    result.watchdog = {true, "residual exceeded growth_factor x initial",
                       step};
    return true;
  }
  if (rn < best_) {
    best_ = rn;
    steps_since_best_ = 0;
  } else if (opt_->watchdog.stall_steps > 0 &&
             ++steps_since_best_ >= opt_->watchdog.stall_steps) {
    result.watchdog = {true, "residual stalled", step};
    return true;
  }
  return false;
}

void StopRules::rewind(std::span<const double> series) {
  best_ = r0_;
  for (double rn : series) best_ = std::min(best_, rn);
  steps_since_best_ = 0;
}

}  // namespace dsouth::dist
