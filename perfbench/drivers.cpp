// Hand-driven replicas of the library's single-call drivers, timed call by
// call into the ledger. Each replica makes the public calls its library
// driver makes (dist::run_distributed, dist::run_distributed_batch,
// elastic::run_elastic), in the same order, so its records equal the
// library driver's bit for bit; the benchmark checks that they do.

#include <cmath>
#include <functional>
#include <tuple>
#include <utility>

#include "bench.hpp"
#include "dist/harness.hpp"
#include "elastic/checkpoint.hpp"
#include "graph/graph.hpp"
#include "kernels/kernels.hpp"
#include "simmpi/execution.hpp"
#include "simmpi/rank_context.hpp"
#include "util/error.hpp"
#include "wire/comm_plan.hpp"
#include "wire/wire.hpp"

namespace perfbench {

namespace dist = dsouth::dist;
namespace simmpi = dsouth::simmpi;
namespace wire = dsouth::wire;

dist::DistRunOptions run_options(const WorkloadSpec& w, const Seeds& s,
                                 bool sequential) {
  dist::DistRunOptions opt;
  opt.max_parallel_steps = w.max_steps;
  opt.stop_at_residual = w.target;
  if (w.threads > 0 && !sequential) {
    opt.backend = simmpi::BackendKind::kThreadPool;
    opt.num_threads = w.threads;
  }
  if (w.driver == Driver::kElastic) {
    opt.resilience.enabled = true;
    opt.ranks_per_node = 16;
    opt.node_route = true;
    opt.trace.enabled = true;
    opt.faults.seed = s.faults;
    if (w.kills) opt.faults.kills = {{3, 12}, {129, 24}};
    if (w.message_faults) {
      opt.faults.defaults.drop_probability = 0.02;
      opt.faults.defaults.duplicate_probability = 0.005;
      opt.faults.defaults.corrupt_probability = 0.005;
    }
    if (w.async) {
      opt.async = true;
      opt.async_seed = s.latency;
    }
  }
  return opt;
}

dsouth::elastic::RecoveryOptions recovery_options() {
  dsouth::elastic::RecoveryOptions rec;
  rec.checkpoint_every = 8;
  return rec;
}

namespace {

/// Family of wire records a method's channels carry.
wire::Family record_family(DistMethod m) {
  switch (m) {
    case DistMethod::kParallelSouthwell:
      return wire::Family::kNorm;
    case DistMethod::kDistributedSouthwell:
      return wire::Family::kEstimate;
    default:
      return wire::Family::kDelta;
  }
}

/// Decode one delivered payload the way a receiving solver does, without
/// applying it. Returns a value folded from the decoded fields so the
/// work cannot be discarded.
double decode_payload(wire::Family fam, std::span<const double> payload,
                      std::size_t nb) {
  double acc = 0.0;
  if (wire::is_tenant_frame(payload)) {
    wire::for_each_tenant(payload, [&](const wire::TenantEntry& e) {
      acc += decode_payload(fam, e.body, nb);
    });
  } else if (wire::is_envelope(payload)) {
    const wire::EnvelopeView env = wire::decode_envelope(payload);
    acc += decode_payload(fam, env.body, nb);
  } else {
    wire::for_each_record(fam, payload, nb, [&](const wire::Record& r) {
      acc += r.norm2 + static_cast<double>(r.dx.size() + r.rb.size());
    });
  }
  return acc;
}

volatile double g_decode_sink = 0.0;

/// Probe: decode rank p's window (before the solver absorbs it).
void decode_probe(Ledger& l, const simmpi::RankContext& ctx,
                  const dist::DistLayout& layout, wire::Family fam) {
  const auto window = ctx.window();
  if (window.empty()) return;
  l.probe("wire.decode", [&] {
    double acc = 0.0;
    const auto& rd = layout.rank(ctx.rank());
    for (const auto& msg : window) {
      const int nbi = rd.neighbor_index(msg.source);
      if (nbi < 0) continue;
      const auto nb =
          rd.neighbors[static_cast<std::size_t>(nbi)].ghost_rows.size();
      try {
        acc += decode_payload(fam, msg.payload, nb);
      } catch (const wire::DecodeError&) {
        acc += 1.0;  // corrupted under fault injection; the solver rejects it
      }
    }
    g_decode_sink = g_decode_sink + acc;
  });
}

/// One parallel step through the solver's public phase table — what
/// DistStationarySolver::step() runs on the sequential backend.
dist::DistStepStats step_phases(Ledger& l, dist::DistStationarySolver& s,
                                simmpi::Runtime& rt,
                                const dist::DistLayout& layout,
                                wire::Family fam) {
  {
    const Span span(&l, "dist.step");
    s.begin_step();
  }
  const int num_ranks = rt.num_ranks();
  if (rt.async_delivery()) {
    for (int p = 0; p < num_ranks; ++p) {
      if (rt.rank_dead(p)) continue;
      simmpi::RankContext ctx(rt, p);
      decode_probe(l, ctx, layout, fam);
      {
        const Span span(&l, "dist.absorb");
        s.rank_absorb(ctx, p);
      }
      const Span span(&l, "dist.send");
      s.rank_async_send(ctx, p);
    }
    const Span span(&l, "simmpi.fence");
    rt.fence();
  } else {
    const int epochs = s.step_epochs();
    for (int e = 0; e < epochs; ++e) {
      for (int p = 0; p < num_ranks; ++p) {
        if (rt.rank_dead(p)) continue;
        simmpi::RankContext ctx(rt, p);
        const Span span(&l, "dist.send");
        s.rank_send(e, ctx, p);
      }
      {
        const Span span(&l, "simmpi.fence");
        rt.fence();
      }
      for (int p = 0; p < num_ranks; ++p) {
        if (rt.rank_dead(p)) continue;
        simmpi::RankContext ctx(rt, p);
        decode_probe(l, ctx, layout, fam);
        const Span span(&l, "dist.absorb");
        s.rank_absorb(ctx, p);
      }
    }
  }
  const Span span(&l, "dist.step");
  return s.merge_rank_stats();
}

/// Copy every rank's x and r (a probe: the kernel accounting sweeps
/// these copies after the run).
std::pair<std::vector<std::vector<value_t>>, std::vector<std::vector<value_t>>>
copy_state(Ledger& l, const dist::DistStationarySolver& s) {
  std::vector<std::vector<value_t>> xs, rs;
  l.probe("bench.copy_state", [&] {
    const int num_ranks = s.layout().num_ranks();
    for (int p = 0; p < num_ranks; ++p) {
      xs.emplace_back(s.local_x(p).begin(), s.local_x(p).end());
      rs.emplace_back(s.local_r(p).begin(), s.local_r(p).end());
    }
  });
  return {std::move(xs), std::move(rs)};
}

std::shared_ptr<const dist::DistLayout> borrow(const dist::DistLayout& l) {
  return std::shared_ptr<const dist::DistLayout>(&l, [](const auto*) {});
}

void check_plain_loop_options(const dist::DistRunOptions& opt) {
  // The replicas implement the stop rule the workloads use; the observer
  // policies no workload enables are not replicated.
  DSOUTH_CHECK(opt.divergence_abort == 0.0);
  DSOUTH_CHECK(!opt.watchdog.enabled);
  DSOUTH_CHECK(opt.profiler == nullptr);
}

}  // namespace

CallRecord record_of(const dist::DistRunResult& r) {
  CallRecord c;
  c.model_s = r.model_time.empty() ? 0.0 : r.model_time.back();
  c.msgs = r.comm_totals.msgs;
  c.msgs_logical = r.comm_totals.msgs_logical;
  c.bytes = r.comm_totals.bytes;
  c.steps = static_cast<index_t>(r.steps_taken());
  c.relaxations = r.relaxations.empty()
                      ? 0
                      : static_cast<std::uint64_t>(r.relaxations.back());
  if (r.async_totals) {
    c.async_delivered = r.async_totals->delivered;
    c.staleness_sum = r.async_totals->staleness_sum;
    c.epochs = r.async_totals->epochs;
  }
  if (r.fault_summary) c.msgs_dropped = r.fault_summary->msgs_dropped;
  SystemRecord sys;
  sys.residual_norm = r.residual_norm;
  sys.recorded = r.residual_norm.empty() ? 0.0 : r.residual_norm.back();
  sys.final_x = r.final_x;
  c.systems.push_back(std::move(sys));
  c.trace_log = r.trace_log;
  return c;
}

CallRecord record_of(const dist::BatchRunResult& r) {
  CallRecord c;
  c.model_s = r.model_time;
  c.msgs = r.comm_totals.msgs;
  c.msgs_logical = r.comm_totals.msgs_logical;
  c.bytes = r.comm_totals.bytes;
  c.epochs = r.epochs;
  c.steps = r.steps_taken;
  for (const auto& t : r.tenants) {
    c.relaxations += t.relaxations;
    SystemRecord sys;
    sys.residual_norm = t.residual_norm;
    sys.recorded = t.final_residual;
    sys.final_x = t.final_x;
    c.systems.push_back(std::move(sys));
  }
  c.trace_log = r.trace_log;
  return c;
}

CallRecord traced_solve(Ledger& l, DistMethod m,
                        const dist::DistLayout& layout,
                        const std::vector<value_t>& b,
                        const std::vector<value_t>& x0,
                        const dist::DistRunOptions& opt) {
  check_plain_loop_options(opt);
  const auto t0 = Clock::now();
  const double probes0 = l.probe_total();
  const wire::Family fam = record_family(m);
  std::unique_ptr<dist::RunHarness> h;
  {
    const Span span(&l, "dist.harness");
    h = std::make_unique<dist::RunHarness>(m, layout, b, x0, opt);
  }
  dist::DistRunResult result;
  h->init_result(result);
  {
    const Span span(&l, "dist.observe");
    h->record_state(result);
  }
  index_t total_relax = 0;
  for (index_t k = 0; k < opt.max_parallel_steps; ++k) {
    const dist::DistStepStats stats =
        step_phases(l, h->solver(), h->runtime(), layout, fam);
    total_relax += stats.relaxations;
    result.active_ranks.push_back(stats.active_ranks);
    {
      const Span span(&l, "dist.observe");
      h->record_state(result);
    }
    result.relaxations.back() = static_cast<double>(total_relax);
    const double rn = result.residual_norm.back();
    if (opt.stop_at_residual > 0.0 && rn <= opt.stop_at_residual) break;
  }
  {
    const Span span(&l, "dist.drain");
    h->drain_if_async();
  }
  {
    const Span span(&l, "dist.gather");
    result.final_x = h->solver().gather_x();
  }
  const std::uint64_t epochs = h->runtime().epochs_completed();
  auto [rank_x, rank_r] = copy_state(l, h->solver());
  {
    const Span span(&l, "dist.finish");
    h->fill_totals(result);
    h->finish(result);
    h.reset();
  }
  CallRecord c = record_of(result);
  c.epochs = epochs;
  c.host_s = seconds_since(t0) - (l.probe_total() - probes0);
  c.state_layout = borrow(layout);
  c.rank_x = std::move(rank_x);
  c.rank_r = std::move(rank_r);
  return c;
}

CallRecord traced_batch(Ledger& l, DistMethod m,
                        const std::vector<const dist::DistLayout*>& layouts,
                        const std::vector<dist::TenantSpec>& specs,
                        const dist::DistRunOptions& opt) {
  check_plain_loop_options(opt);
  // The serving workload's configuration: bulk-synchronous, fault-free,
  // single-level, untraced — the branches of run_distributed_batch it
  // takes are the ones replicated here.
  DSOUTH_CHECK(specs.size() >= 2);
  DSOUTH_CHECK(!opt.async && !opt.faults.any() && !opt.trace.enabled);
  DSOUTH_CHECK(opt.ranks_per_node == 0 && opt.num_nodes == 0 &&
               opt.node_map.empty() && !opt.resilience.enabled);
  const auto t0 = Clock::now();
  const double probes0 = l.probe_total();
  const wire::Family fam = record_family(m);
  const std::size_t batch = specs.size();
  const auto layout_of = [&](std::size_t t) -> const dist::DistLayout& {
    return layouts.size() == 1 ? *layouts[0] : *layouts[t];
  };
  const dist::DistLayout& layout = *layouts[0];
  const int num_ranks = layout.num_ranks();

  std::unique_ptr<simmpi::Runtime> rt;
  std::unique_ptr<simmpi::ExecutionBackend> backend;
  std::vector<std::unique_ptr<dist::DistStationarySolver>> solvers;
  {
    const Span span(&l, "dist.harness");
    rt = std::make_unique<simmpi::Runtime>(num_ranks, opt.machine,
                                           opt.delivery);
    rt->set_num_tenants(batch);
    backend = simmpi::make_backend(opt.backend, opt.num_threads);
    solvers.reserve(batch);
    for (std::size_t t = 0; t < batch; ++t) {
      solvers.push_back(dist::make_dist_solver(m, layout_of(t), *rt,
                                               specs[t].b, specs[t].x0, opt));
      solvers.back()->set_backend(*backend);
      solvers.back()->set_batch_staging(true);
    }
  }

  CallRecord c;
  c.systems.resize(batch);
  std::vector<std::uint64_t> relax(batch, 0);
  std::vector<char> active(batch, 1);
  std::vector<int> active_ids;
  std::vector<std::vector<wire::ChannelSet*>> rank_sets(
      static_cast<std::size_t>(num_ranks));

  const auto demux_absorb = [&](simmpi::RankContext& ctx, int p) {
    const auto& rd = layout.rank(p);
    for (const auto& msg : ctx.window()) {
      const int nbi = rd.neighbor_index(msg.source);
      DSOUTH_CHECK(nbi >= 0);
      wire::for_each_tenant(msg.payload, [&](const wire::TenantEntry& e) {
        DSOUTH_CHECK(e.tenant >= 0 &&
                     static_cast<std::size_t>(e.tenant) < batch);
        solvers[static_cast<std::size_t>(e.tenant)]->absorb_payload(
            ctx, p, static_cast<std::size_t>(nbi), e.body);
      });
    }
    solvers.front()->trace_absorb(ctx);
    ctx.consume();
  };

  // Per-tenant residual norms with the batched SoA kernel and per-rank
  // partial sums, as the batched driver computes them.
  std::vector<value_t> norm_acc(batch), rank_acc(batch), soa;
  std::vector<double> rn(batch);
  const auto compute_norms = [&] {
    const Span span(&l, "dist.observe");
    std::fill(norm_acc.begin(), norm_acc.end(), value_t{0});
    for (int p = 0; p < num_ranks; ++p) {
      const auto rows = static_cast<std::size_t>(layout.rank(p).num_rows());
      if (rows == 0) continue;
      soa.resize(rows * batch);
      for (std::size_t t = 0; t < batch; ++t) {
        const auto rp = solvers[t]->local_r(p);
        for (std::size_t i = 0; i < rows; ++i) soa[i * batch + t] = rp[i];
      }
      std::fill(rank_acc.begin(), rank_acc.end(), value_t{0});
      dsouth::kernels::norm_sq_batch(soa, batch, rank_acc);
      for (std::size_t t = 0; t < batch; ++t) norm_acc[t] += rank_acc[t];
    }
    for (std::size_t t = 0; t < batch; ++t) rn[t] = std::sqrt(norm_acc[t]);
  };
  const auto target_of = [&](std::size_t t) {
    return specs[t].stop_at_residual > 0.0 ? specs[t].stop_at_residual
                                           : opt.stop_at_residual;
  };

  compute_norms();
  for (std::size_t t = 0; t < batch; ++t) {
    c.systems[t].residual_norm.push_back(rn[t]);
    if (target_of(t) > 0.0 && rn[t] <= target_of(t)) active[t] = 0;
  }
  for (index_t k = 0; k < opt.max_parallel_steps; ++k) {
    active_ids.clear();
    for (std::size_t t = 0; t < batch; ++t) {
      if (active[t]) active_ids.push_back(static_cast<int>(t));
    }
    if (active_ids.empty()) break;
    for (auto& sets : rank_sets) sets.clear();
    for (int t : active_ids) {
      for (int p = 0; p < num_ranks; ++p) {
        rank_sets[static_cast<std::size_t>(p)].push_back(
            &solvers[static_cast<std::size_t>(t)]->channel(p));
      }
    }
    {
      const Span span(&l, "dist.step");
      for (int t : active_ids) {
        solvers[static_cast<std::size_t>(t)]->begin_step();
      }
    }
    const int epochs =
        solvers[static_cast<std::size_t>(active_ids.front())]->step_epochs();
    for (int e = 0; e < epochs; ++e) {
      for (int p = 0; p < num_ranks; ++p) {
        simmpi::RankContext ctx(*rt, p);
        {
          const Span span(&l, "dist.send");
          for (int t : active_ids) {
            solvers[static_cast<std::size_t>(t)]->rank_send(e, ctx, p);
          }
        }
        const Span span(&l, "wire.ship");
        wire::ChannelSet::ship_batch(
            ctx, rank_sets[static_cast<std::size_t>(p)], active_ids);
      }
      {
        const Span span(&l, "simmpi.fence");
        rt->fence();
      }
      for (int p = 0; p < num_ranks; ++p) {
        simmpi::RankContext ctx(*rt, p);
        decode_probe(l, ctx, layout, fam);
        const Span span(&l, "dist.absorb");
        demux_absorb(ctx, p);
      }
    }
    ++c.steps;
    compute_norms();
    const Span span(&l, "dist.step");
    for (int t : active_ids) {
      const auto ut = static_cast<std::size_t>(t);
      const dist::DistStepStats st = solvers[ut]->merge_rank_stats();
      relax[ut] += static_cast<std::uint64_t>(st.relaxations);
      c.systems[ut].residual_norm.push_back(rn[ut]);
      if (target_of(ut) > 0.0 && rn[ut] <= target_of(ut)) active[ut] = 0;
    }
  }
  {
    const Span span(&l, "dist.gather");
    for (std::size_t t = 0; t < batch; ++t) {
      c.systems[t].recorded = rn[t];
      c.systems[t].final_x = solvers[t]->gather_x();
      c.relaxations += relax[t];
    }
  }
  c.model_s = rt->model_time_seconds();
  c.epochs = rt->epochs_completed();
  c.msgs = rt->stats().total_messages();
  c.msgs_logical = rt->stats().logical_messages();
  c.bytes = rt->stats().total_bytes();
  std::tie(c.rank_x, c.rank_r) = copy_state(l, *solvers.front());
  c.state_layout = borrow(layout_of(0));
  {
    const Span span(&l, "dist.finish");
    solvers.clear();
    backend.reset();
    rt.reset();
  }
  c.host_s = seconds_since(t0) - (l.probe_total() - probes0);
  return c;
}

namespace {

/// The configuration bits elastic::run_elastic stamps into checkpoints.
std::uint64_t config_flags(const dist::DistRunOptions& opt) {
  namespace el = dsouth::elastic;
  std::uint64_t flags = 0;
  if (opt.resilience.enabled || opt.async) flags |= el::kFlagResilience;
  if (opt.coalesce_messages) flags |= el::kFlagCoalescing;
  if (opt.async) flags |= el::kFlagAsync;
  if (!opt.node_map.empty() || opt.ranks_per_node > 0 || opt.num_nodes > 0) {
    flags |= el::kFlagNodeTopology;
  }
  return flags;
}

}  // namespace

CallRecord traced_elastic(Ledger& l, DistMethod m, const CsrMatrix& a,
                          const dsouth::graph::Partition& partition,
                          const std::vector<value_t>& b,
                          const std::vector<value_t>& x0,
                          const dist::DistRunOptions& opt,
                          const dsouth::elastic::RecoveryOptions& rec) {
  namespace el = dsouth::elastic;
  namespace graph = dsouth::graph;
  namespace trace = dsouth::trace;
  check_plain_loop_options(opt);
  DSOUTH_CHECK(rec.enabled);
  const auto t0 = Clock::now();
  const double probes0 = l.probe_total();
  const wire::Family fam = record_family(m);

  std::unique_ptr<graph::Graph> g;
  {
    const Span span(&l, "graph.build");
    g = std::make_unique<graph::Graph>(graph::Graph::from_matrix_structure(a));
  }
  graph::Partition part = partition;
  std::unique_ptr<dist::DistLayout> layout;
  std::unique_ptr<dist::RunHarness> h;
  {
    const Span span(&l, "dist.layout");
    layout = std::make_unique<dist::DistLayout>(a, part);
  }
  {
    const Span span(&l, "dist.harness");
    h = std::make_unique<dist::RunHarness>(m, *layout, b, x0, opt);
  }
  const int num_ranks = h->runtime().num_ranks();
  const std::uint64_t flags = config_flags(opt);

  dist::DistRunResult result;
  h->init_result(result);
  {
    const Span span(&l, "dist.observe");
    h->record_state(result);
  }

  struct ElasticEvent {
    int action;
    double a0, a1;
  };
  std::vector<ElasticEvent> journal;
  const auto record_event = [&](int action, double a0, double a1) {
    const Span span(&l, "trace.record");
    trace::Tracer* tracer = h->tracer();
    const dsouth::faults::FaultSchedule* sched = h->fault_schedule();
    if (tracer && sched && sched->any_kills()) {
      tracer->record(0, trace::EventKind::kElastic, -1, action, a0, a1,
                     h->runtime().epochs_completed(),
                     h->runtime().model_time_seconds());
    }
  };
  const auto trace_elastic = [&](int action, double a0, double a1) {
    journal.push_back({action, a0, a1});
    record_event(action, a0, a1);
  };

  CallRecord c;
  std::vector<std::uint8_t> ckpt_bytes;
  index_t ckpt_step = 0;
  std::uint64_t checkpoints_bytes = 0;
  const auto take_checkpoint = [&](index_t step) {
    el::Checkpoint ck;
    ck.num_ranks = num_ranks;
    ck.method = static_cast<int>(m);
    ck.flags = flags;
    ck.epoch = h->runtime().epochs_completed();
    ck.step = step;
    {
      const Span span(&l, "elastic.capture");
      ck.runtime = h->runtime().capture_state();
      ck.solver = h->solver().capture_state();
    }
    {
      const Span span(&l, "elastic.encode");
      ckpt_bytes = el::encode(ck);
    }
    ckpt_step = step;
    checkpoints_bytes += ckpt_bytes.size();
    trace_elastic(0, static_cast<double>(ckpt_bytes.size()),
                  static_cast<double>(step));
  };
  take_checkpoint(0);

  std::vector<char> dead(static_cast<std::size_t>(num_ranks), 0);
  std::vector<index_t> dead_parts;
  std::vector<value_t> x_restored;
  index_t total_relax = 0;
  index_t k = 0;
  while (k < opt.max_parallel_steps) {
    const dist::DistStepStats stats =
        step_phases(l, h->solver(), h->runtime(), *layout, fam);
    ++k;
    total_relax += stats.relaxations;
    result.active_ranks.push_back(stats.active_ranks);
    {
      const Span span(&l, "dist.observe");
      h->record_state(result);
    }
    result.relaxations.back() = static_cast<double>(total_relax);

    std::vector<int> newly;
    const dsouth::faults::FaultSchedule* sched = h->fault_schedule();
    const std::uint64_t epochs_done = h->runtime().epochs_completed();
    if (sched && sched->any_kills() && epochs_done > 0) {
      for (int rk = 0; rk < num_ranks; ++rk) {
        if (!dead[static_cast<std::size_t>(rk)] &&
            sched->dead(rk, epochs_done - 1)) {
          newly.push_back(rk);
        }
      }
    }

    if (!newly.empty()) {
      const std::vector<index_t> old_sizes = part.part_sizes();
      std::vector<std::pair<int, std::uint64_t>> events;
      std::vector<index_t> moved;
      for (int rk : newly) {
        dead[static_cast<std::size_t>(rk)] = 1;
        dead_parts.push_back(static_cast<index_t>(rk));
        events.emplace_back(rk, sched->kill_epoch(rk));
        moved.push_back(old_sizes[static_cast<std::size_t>(rk)]);
        ++c.recoveries;
      }
      el::Checkpoint ck;
      {
        const Span span(&l, "elastic.decode");
        ck = el::decode(ckpt_bytes);
      }
      {
        const Span span(&l, "dist.gather");
        x_restored = layout->gather(ck.solver.x);
      }
      const auto keep = static_cast<std::size_t>(ck.step);
      result.residual_norm.resize(keep + 1);
      result.model_time.resize(keep + 1);
      result.comm_cost.resize(keep + 1);
      result.solve_comm.resize(keep + 1);
      result.res_comm.resize(keep + 1);
      result.relaxations.resize(keep + 1);
      result.active_ranks.resize(keep);
      k = ck.step;
      total_relax = static_cast<index_t>(result.relaxations.back());

      {
        const Span span(&l, "graph.repartition");
        part = graph::repartition_after_failure(*g, part, dead_parts,
                                                rec.repartition);
      }
      {
        const Span span(&l, "dist.finish");
        h.reset();
      }
      {
        const Span span(&l, "dist.layout");
        layout = std::make_unique<dist::DistLayout>(a, part);
      }
      {
        const Span span(&l, "dist.harness");
        h = std::make_unique<dist::RunHarness>(m, *layout, b, x_restored,
                                               opt);
      }
      {
        const Span span(&l, "simmpi.restore");
        simmpi::RuntimeState rs = ck.runtime;
        rs.window_msgs.clear();
        rs.deferred.clear();
        h->runtime().restore_state(rs);
      }
      for (const auto& ev : journal) record_event(ev.action, ev.a0, ev.a1);
      for (std::size_t i = 0; i < events.size(); ++i) {
        trace_elastic(1, static_cast<double>(events[i].first),
                      static_cast<double>(events[i].second));
        trace_elastic(3, static_cast<double>(events[i].first),
                      static_cast<double>(moved[i]));
      }
      trace_elastic(2, static_cast<double>(ck.step),
                    static_cast<double>(ck.epoch));
      take_checkpoint(k);
      continue;
    }

    const double rn = result.residual_norm.back();
    if (opt.stop_at_residual > 0.0 && rn <= opt.stop_at_residual) break;
    if (rec.checkpoint_every > 0 && k - ckpt_step >= rec.checkpoint_every) {
      take_checkpoint(k);
    }
  }
  {
    const Span span(&l, "dist.drain");
    h->drain_if_async();
  }
  {
    const Span span(&l, "dist.gather");
    result.final_x = h->solver().gather_x();
  }
  const std::uint64_t epochs = h->runtime().epochs_completed();
  auto [rank_x, rank_r] = copy_state(l, h->solver());
  {
    const Span span(&l, "dist.finish");
    h->fill_totals(result);
    h->finish(result);
    h.reset();
    g.reset();
  }
  const std::uint64_t recoveries = c.recoveries;
  c = record_of(result);
  c.recoveries = recoveries;
  c.epochs = epochs;
  c.checkpoint_bytes = checkpoints_bytes;
  c.state_layout = std::move(layout);
  c.rank_x = std::move(rank_x);
  c.rank_r = std::move(rank_r);
  c.host_s = seconds_since(t0) - (l.probe_total() - probes0);
  return c;
}

}  // namespace perfbench
