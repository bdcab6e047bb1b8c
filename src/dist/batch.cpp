#include "dist/batch.hpp"

#include <functional>

#include "dist/harness.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "wire/wire.hpp"

namespace dsouth::dist {

namespace {

/// Tenant layouts must agree on everything the shared schedule and the
/// shared wire depend on: rank count, row distribution, and the exact
/// communication structure (peer lists and directed channel widths). The
/// proxy-suite tenant sweeps perturb only numerical values, never the
/// sparsity, so layouts built from one partition always pass.
void check_layout_compatible(const DistLayout& a, const DistLayout& b) {
  DSOUTH_CHECK_MSG(a.num_ranks() == b.num_ranks(),
                   "tenant layouts disagree on rank count");
  DSOUTH_CHECK_MSG(a.global_rows() == b.global_rows(),
                   "tenant layouts disagree on system size");
  for (int p = 0; p < a.num_ranks(); ++p) {
    const auto pa = a.comm_plan().peers(p);
    const auto pb = b.comm_plan().peers(p);
    DSOUTH_CHECK_MSG(pa.size() == pb.size(),
                     "tenant layouts disagree on neighbor count of rank "
                         << p);
    for (std::size_t k = 0; k < pa.size(); ++k) {
      DSOUTH_CHECK_MSG(pa[k].rank == pb[k].rank &&
                           pa[k].send_width == pb[k].send_width &&
                           pa[k].recv_width == pb[k].recv_width,
                       "tenant layouts disagree on channel " << k
                                                             << " of rank "
                                                             << p);
    }
  }
}

/// B == 1 degenerates to the unbatched driver: delegate wholesale, so a
/// single-tenant batched run is byte-identical to run_distributed —
/// iterates, traces, stats — by construction.
BatchRunResult run_single(DistMethod method, const DistLayout& layout,
                          const TenantSpec& spec, const DistRunOptions& opt) {
  DistRunOptions sopt = opt;
  if (spec.stop_at_residual > 0.0) {
    sopt.stop_at_residual = spec.stop_at_residual;
  }
  DistRunResult solo = run_distributed(method, layout, spec.b, spec.x0, sopt);

  BatchRunResult out;
  out.method = solo.method;
  out.num_ranks = solo.num_ranks;
  out.n = solo.n;
  out.batch = 1;
  out.backend = solo.backend;
  out.num_threads = solo.num_threads;
  out.wall_seconds = solo.wall_seconds;
  out.comm_totals = solo.comm_totals;
  out.model_time = solo.model_time.empty() ? 0.0 : solo.model_time.back();
  out.steps_taken = static_cast<index_t>(solo.steps_taken());
  if (solo.async_totals) out.epochs = solo.async_totals->epochs;
  out.trace_log = solo.trace_log;

  TenantResult t;
  t.residual_norm = solo.residual_norm;
  t.steps = static_cast<index_t>(solo.steps_taken());
  t.final_residual =
      solo.residual_norm.empty() ? 0.0 : solo.residual_norm.back();
  t.converged = sopt.stop_at_residual > 0.0 &&
                t.final_residual <= sopt.stop_at_residual;
  t.final_x = solo.final_x;
  t.relaxations = solo.relaxations.empty()
                      ? 0
                      : static_cast<std::uint64_t>(solo.relaxations.back());
  t.wire_records = solo.comm_totals.msgs_logical;
  // Recover payload doubles from the modeled byte total (every message is
  // charged header + 8 bytes per double — simmpi::message_bytes).
  t.wire_doubles = (solo.comm_totals.bytes -
                    simmpi::kMessageHeaderBytes * solo.comm_totals.msgs) /
                   8;
  out.tenants.push_back(std::move(t));
  out.solo = std::move(solo);
  return out;
}

}  // namespace

BatchRunResult run_distributed_batch(DistMethod method,
                                     std::span<const DistLayout* const> layouts,
                                     std::span<const TenantSpec> specs,
                                     const DistRunOptions& opt) {
  DSOUTH_CHECK_MSG(!specs.empty(), "batched run needs at least one tenant");
  DSOUTH_CHECK_MSG(layouts.size() == 1 || layouts.size() == specs.size(),
                   "pass one shared layout or one per tenant");
  for (const DistLayout* l : layouts) DSOUTH_CHECK(l != nullptr);
  for (std::size_t i = 1; i < layouts.size(); ++i) {
    check_layout_compatible(*layouts[0], *layouts[i]);
  }
  if (specs.size() == 1) return run_single(method, *layouts[0], specs[0], opt);

  const std::size_t batch = specs.size();
  const DistLayout& layout = *layouts[0];
  const int num_ranks = layout.num_ranks();
  // Observer policies defined on a single trajectory do not lift to a
  // batch; reject rather than silently half-apply them.
  DSOUTH_CHECK_MSG(!opt.watchdog.enabled,
                   "the divergence watchdog is not supported for batched "
                   "runs (per-tenant stop_at_residual is)");
  DSOUTH_CHECK_MSG(opt.divergence_abort == 0.0,
                   "divergence_abort is not supported for batched runs");

  // --- Runtime, attachments and solvers: the same RunHarness every
  // driver builds, so every feature (async delivery, node topology,
  // tracing, profiling, faults) composes with batching the way it composes
  // with a solo run.
  RunHarness h(method, layouts, specs, opt);
  simmpi::Runtime& rt = h.runtime();

  BatchRunResult result;
  h.init_result(result);
  result.batch = batch;
  result.tenants.resize(batch);

  // --- Shared-epoch scheduling state. All per-rank phase scratch is
  // per-slot (the SPMD discipline): a rank phase touches only
  // rank_sets[p] and rejected_per_rank[p].
  std::vector<char> active(batch, 1);
  std::vector<int> active_ids;
  std::vector<std::vector<wire::ChannelSet*>> rank_sets(
      static_cast<std::size_t>(num_ranks));
  std::vector<std::uint64_t> rejected_per_rank(
      static_cast<std::size_t>(num_ranks), 0);

  const auto run_rank_phase =
      [&](const std::function<void(simmpi::RankContext&, int)>& fn) {
        struct Call {
          simmpi::Runtime* rt;
          const std::function<void(simmpi::RankContext&, int)>* fn;
        } call{&rt, &fn};
        h.backend().run_epoch(num_ranks, [&call](int p) {
          simmpi::RankContext ctx(*call.rt, p);
          (*call.fn)(ctx, p);
        });
      };

  // Demultiplexing absorb: every window payload is a tenant frame; walk
  // it and hand each entry to its tenant's ordinary absorb path — the
  // per-tenant record streams (and so the per-tenant floating-point
  // schedules) are exactly the solo ones. Under fault injection a frame
  // that fails structural validation (a tenant id outside the batch
  // included) is dropped whole; entries already dispatched stay applied
  // (each rides its own sequenced envelope, so per-tenant idempotence
  // covers the partial application). Without a fault schedule a malformed
  // frame is a bug and the DecodeError propagates.
  const auto demux_absorb = [&](simmpi::RankContext& ctx, int p) {
    const RankData& rd = layout.rank(p);
    for (const auto& msg : ctx.window()) {
      const int nbi = rd.neighbor_index(msg.source);
      DSOUTH_CHECK_MSG(nbi >= 0, "message from non-neighbor " << msg.source);
      try {
        wire::for_each_tenant(msg.payload, [&](const wire::TenantEntry& e) {
          if (static_cast<std::size_t>(e.tenant) >= batch) {
            throw wire::DecodeError(wire::DecodeErrorKind::kBadType, 0,
                                    "tenant id outside the batch");
          }
          h.solver(e.tenant).absorb_payload(
              ctx, p, static_cast<std::size_t>(nbi), e.body);
        });
      } catch (const wire::DecodeError&) {
        if (!h.fault_schedule()) throw;
        ++rejected_per_rank[static_cast<std::size_t>(p)];
      }
    }
    // One absorb event per rank for the shared window — frames are shared
    // wire, not any single tenant's traffic.
    h.solver().trace_absorb(ctx);
    ctx.consume();
  };

  // Per-tenant exact residual norms, each from its own solver's
  // global_residual_norm(). Only scheduled tenants record a norm per step,
  // so a step norms only those; every tenant is normed at the start and
  // once more after the loop (a dropped-out tenant may still absorb late
  // messages, which its final residual must include).
  std::vector<double> rn(batch);
  const auto norm_all = [&] {
    for (std::size_t t = 0; t < batch; ++t) {
      rn[t] = h.solver(t).global_residual_norm();
    }
  };
  const auto target_of = [&](std::size_t t) {
    return specs[t].stop_at_residual > 0.0 ? specs[t].stop_at_residual
                                           : opt.stop_at_residual;
  };

  norm_all();
  for (std::size_t t = 0; t < batch; ++t) {
    result.tenants[t].residual_norm.push_back(rn[t]);
    if (target_of(t) > 0.0 && rn[t] <= target_of(t)) {
      active[t] = 0;
      result.tenants[t].converged = true;
    }
  }

  if (opt.profiler) opt.profiler->begin_alloc_window();
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
            &h.solver(t).channel(p));
      }
    }

    util::Stopwatch wall;
    {
      const prof::ScopedPhase prof_step(opt.profiler, num_ranks,
                                        prof::PhaseId::kStep);
      for (int t : active_ids) h.solver(t).begin_step();
      if (rt.async_delivery()) {
        // Event-driven: one fused shared epoch — demux whatever matured,
        // every scheduled tenant's relax-on-arrival send, ship, fence.
        run_rank_phase([&](simmpi::RankContext& ctx, int p) {
          demux_absorb(ctx, p);
          for (int t : active_ids) h.solver(t).rank_async_send(ctx, p);
          wire::ChannelSet::ship_batch(
              ctx, rank_sets[static_cast<std::size_t>(p)], active_ids);
        });
        rt.fence();
      } else {
        const int epochs = h.solver(active_ids.front()).step_epochs();
        for (int e = 0; e < epochs; ++e) {
          run_rank_phase([&](simmpi::RankContext& ctx, int p) {
            for (int t : active_ids) h.solver(t).rank_send(e, ctx, p);
            wire::ChannelSet::ship_batch(
                ctx, rank_sets[static_cast<std::size_t>(p)], active_ids);
          });
          rt.fence();
          run_rank_phase(
              [&](simmpi::RankContext& ctx, int p) { demux_absorb(ctx, p); });
        }
      }
    }
    result.wall_seconds += wall.seconds();
    ++result.steps_taken;

    for (int t : active_ids) {
      const auto ut = static_cast<std::size_t>(t);
      rn[ut] = h.solver(ut).global_residual_norm();
      const DistStepStats st = h.solver(ut).merge_rank_stats();
      result.tenants[ut].relaxations +=
          static_cast<std::uint64_t>(st.relaxations);
      result.tenants[ut].residual_norm.push_back(rn[ut]);
      ++result.tenants[ut].steps;
      if (target_of(ut) > 0.0 && rn[ut] <= target_of(ut)) {
        // Drop out: stop scheduling this tenant (it leaves the shared
        // frames) but keep absorbing anything still in flight to it.
        active[ut] = 0;
        result.tenants[ut].converged = true;
      }
    }
  }
  if (rt.async_delivery()) {
    rt.drain_delayed();
    run_rank_phase(
        [&](simmpi::RankContext& ctx, int p) { demux_absorb(ctx, p); });
  }
  norm_all();
  if (opt.profiler) opt.profiler->end_alloc_window();

  for (std::size_t t = 0; t < batch; ++t) {
    result.tenants[t].final_residual = rn[t];
    result.tenants[t].final_x = h.solver(t).gather_x();
    result.tenants[t].wire_records = rt.stats().tenant_records(t);
    result.tenants[t].wire_doubles = rt.stats().tenant_doubles(t);
  }
  for (std::uint64_t r : rejected_per_rank) result.frames_rejected += r;
  result.model_time = rt.model_time_seconds();
  result.epochs = rt.epochs_completed();
  result.comm_totals = h.comm_totals();
  result.trace_log = h.finish();
  return result;
}

}  // namespace dsouth::dist
