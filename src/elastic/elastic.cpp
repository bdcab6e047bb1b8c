#include "elastic/elastic.hpp"

#include <memory>
#include <utility>

#include "dist/harness.hpp"
#include "elastic/checkpoint.hpp"
#include "graph/graph.hpp"
#include "util/error.hpp"

namespace dsouth::elastic {

namespace {

/// The configuration bits stamped into every checkpoint header.
std::uint64_t config_flags(const dist::DistRunOptions& opt) {
  std::uint64_t flags = 0;
  // Async delivery force-enables resilience (RunHarness does the same).
  if (opt.resilience.enabled || opt.async) flags |= kFlagResilience;
  if (opt.coalesce_messages) flags |= kFlagCoalescing;
  if (opt.async) flags |= kFlagAsync;
  if (!opt.node_map.empty() || opt.ranks_per_node > 0 || opt.num_nodes > 0) {
    flags |= kFlagNodeTopology;
  }
  return flags;
}

}  // namespace

ElasticRunResult run_elastic(dist::DistMethod method, const CsrMatrix& a,
                             const graph::Partition& partition,
                             std::span<const value_t> b,
                             std::span<const value_t> x0,
                             const dist::DistRunOptions& opt,
                             const RecoveryOptions& rec) {
  ElasticRunResult out;
  out.final_partition = partition;
  if (!rec.enabled) {
    out.run = dist::run_distributed(method, a, partition, b, x0, opt);
    return out;
  }

  // The adjacency graph is the repartitioner's substrate; built once — a
  // failure changes the partition, never the matrix.
  const graph::Graph g = graph::Graph::from_matrix_structure(a);
  graph::Partition part = partition;
  auto layout = std::make_unique<dist::DistLayout>(a, part);
  auto h = std::make_unique<dist::RunHarness>(method, *layout, b, x0, opt);
  const int num_ranks = h->runtime().num_ranks();
  const std::uint64_t flags = config_flags(opt);

  dist::DistRunResult result;
  h->init_result(result);
  h->record_state(result);

  // kElastic trace events are recorded only when the plan configures
  // kills, so a fault-free elastic trace stays byte-identical to a plain
  // run_distributed trace (the acceptance invariant test_elastic pins).
  //
  // Each generation rebuild discards the old harness's tracer, so the
  // surviving elastic history (checkpoints, earlier kills) is kept in a
  // journal and replayed into every fresh tracer — the final trace then
  // tells the whole recovery story in order, which is what the analyzer's
  // restore-ordering rule checks. Replayed events are re-stamped with the
  // post-restore epoch/time, consistent with the rolled-back series.
  struct ElasticEvent {
    int action;
    double a0, a1;
  };
  std::vector<ElasticEvent> journal;
  auto record_event = [&](int action, double a0, double a1) {
    trace::Tracer* tracer = h->tracer();
    const faults::FaultSchedule* sched = h->fault_schedule();
    if (tracer && sched && sched->any_kills()) {
      tracer->record(/*rank=*/0, trace::EventKind::kElastic, /*peer=*/-1,
                     action, a0, a1, h->runtime().epochs_completed(),
                     h->runtime().model_time_seconds());
    }
  };
  auto trace_elastic = [&](int action, double a0, double a1) {
    journal.push_back({action, a0, a1});
    record_event(action, a0, a1);
  };

  std::vector<std::uint8_t> ckpt_bytes;
  index_t ckpt_step = 0;
  auto take_checkpoint = [&](index_t step) {
    Checkpoint c;
    c.num_ranks = num_ranks;
    c.method = static_cast<int>(method);
    c.flags = flags;
    c.epoch = h->runtime().epochs_completed();
    c.step = step;
    c.runtime = h->runtime().capture_state();
    c.solver = h->solver().capture_state();
    ckpt_bytes = encode(c);
    ckpt_step = step;
    ++out.checkpoints_taken;
    out.last_checkpoint_bytes = ckpt_bytes.size();
    trace_elastic(/*action=*/0, static_cast<double>(ckpt_bytes.size()),
                  static_cast<double>(step));
  };
  take_checkpoint(0);

  std::vector<char> dead(static_cast<std::size_t>(num_ranks), 0);
  std::vector<index_t> dead_parts;
  std::vector<value_t> x_restored;

  dist::StopRules stop(opt, result.residual_norm.front());
  if (opt.profiler) opt.profiler->begin_alloc_window();
  index_t k = 0;  // surviving parallel steps recorded so far
  while (k < opt.max_parallel_steps) {
    h->step(result);
    ++k;

    // --- Detect: which ranks were permanently dead during the step's
    // epochs? (dead() is monotone, so the last closed epoch suffices.)
    std::vector<int> newly;
    const faults::FaultSchedule* sched = h->fault_schedule();
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
      // --- Recover: roll back to the checkpoint, repartition, rebuild.
      const std::vector<index_t> old_sizes = part.part_sizes();
      const index_t detected_step = k;
      for (int rk : newly) {
        dead[static_cast<std::size_t>(rk)] = 1;
        dead_parts.push_back(static_cast<index_t>(rk));
        RecoveryEvent ev;
        ev.dead_rank = rk;
        ev.kill_epoch = sched->kill_epoch(rk);
        ev.detected_step = detected_step;
        ev.rows_moved = old_sizes[static_cast<std::size_t>(rk)];
        ev.checkpoint_bytes = ckpt_bytes.size();
        out.recoveries.push_back(ev);
      }
      const auto survivors =
          static_cast<std::size_t>(num_ranks) - dead_parts.size();
      DSOUTH_CHECK_MSG(survivors > 0,
                       "elastic: every rank died — nothing to recover onto");

      Checkpoint c = decode(ckpt_bytes);
      // The checkpoint was captured on the current generation, so the
      // current layout maps its per-rank iterate back to a global vector.
      x_restored = layout->gather(c.solver.x);

      // Roll the recorded series back to the checkpoint step; the resumed
      // steps will overwrite history exactly as a real restart re-earns it.
      const auto keep = static_cast<std::size_t>(c.step);
      result.residual_norm.resize(keep + 1);
      result.model_time.resize(keep + 1);
      result.comm_cost.resize(keep + 1);
      result.solve_comm.resize(keep + 1);
      result.res_comm.resize(keep + 1);
      result.relaxations.resize(keep + 1);
      result.active_ranks.resize(keep);
      k = c.step;
      for (auto& ev : out.recoveries) {
        if (ev.detected_step == detected_step) ev.resumed_step = c.step;
      }

      part = graph::repartition_after_failure(g, part, dead_parts,
                                              rec.repartition);
      // Fresh generation: destroy the harness BEFORE its layout, then
      // rebuild both over the new partition, seeding the solver with the
      // checkpointed iterate (residuals are re-derived exactly, estimates
      // re-seeded — see RecoveryContract).
      h.reset();
      layout = std::make_unique<dist::DistLayout>(a, part);
      h = std::make_unique<dist::RunHarness>(method, *layout, b, x_restored,
                                             opt);
      // Restore the runtime's deterministic cursors (epoch, model time,
      // stats, send counters, pending flops). In-flight traffic is NOT
      // restored: a permanent failure loses it, and the fresh solver's
      // setup re-seeds every ghost cache, so nothing depends on it.
      simmpi::RuntimeState rs = c.runtime;
      rs.window_msgs.clear();
      rs.deferred.clear();
      h->runtime().restore_state(rs);

      // Replay the surviving elastic history into the fresh tracer before
      // recording this recovery's own events.
      for (const auto& ev : journal) record_event(ev.action, ev.a0, ev.a1);

      for (const auto& ev : out.recoveries) {
        if (ev.detected_step != detected_step) continue;
        trace_elastic(/*action=*/1, static_cast<double>(ev.dead_rank),
                      static_cast<double>(ev.kill_epoch));
        trace_elastic(/*action=*/3, static_cast<double>(ev.dead_rank),
                      static_cast<double>(ev.rows_moved));
      }
      trace_elastic(/*action=*/2, static_cast<double>(c.step),
                    static_cast<double>(c.epoch));

      // Watchdog bookkeeping rolls back with the series.
      stop.rewind(result.residual_norm);

      // Re-checkpoint immediately: the stored buffer must always match the
      // current generation (a second failure restores onto THIS layout).
      take_checkpoint(k);
      continue;
    }

    // --- Observer-side stop rules, shared with run_distributed.
    if (stop.stop(result)) break;

    if (rec.checkpoint_every > 0 && k - ckpt_step >= rec.checkpoint_every) {
      take_checkpoint(k);
    }
  }
  h->drain_if_async();
  if (opt.profiler) opt.profiler->end_alloc_window();
  result.final_x = h->solver().gather_x();
  h->fill_totals(result);
  h->finish(result);
  out.run = std::move(result);
  out.final_partition = std::move(part);
  return out;
}

}  // namespace dsouth::elastic
