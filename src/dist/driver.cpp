#include "dist/driver.hpp"

#include <cmath>

#include "dist/block_jacobi.hpp"
#include "dist/harness.hpp"
#include "dist/multicolor_block_gs.hpp"
#include "dist/parallel_southwell.hpp"
#include "util/error.hpp"
#include "util/interp.hpp"

namespace dsouth::dist {

const char* method_name(DistMethod m) {
  switch (m) {
    case DistMethod::kBlockJacobi:
      return "BlockJacobi";
    case DistMethod::kParallelSouthwell:
      return "ParallelSouthwell";
    case DistMethod::kDistributedSouthwell:
      return "DistributedSouthwell";
    case DistMethod::kMulticolorBlockGs:
      return "MulticolorBlockGs";
  }
  return "?";
}

const char* method_abbrev(DistMethod m) {
  switch (m) {
    case DistMethod::kBlockJacobi:
      return "BJ";
    case DistMethod::kParallelSouthwell:
      return "PS";
    case DistMethod::kDistributedSouthwell:
      return "DS";
    case DistMethod::kMulticolorBlockGs:
      return "MCBGS";
  }
  return "?";
}

std::optional<DistRunResult::AtTarget> DistRunResult::at_target(
    double target) const {
  auto crossing = util::first_crossing_log10(residual_norm, target);
  if (!crossing) return std::nullopt;
  AtTarget out;
  out.steps = *crossing;
  out.model_time = util::interpolate_series(model_time, *crossing);
  out.comm_cost = util::interpolate_series(comm_cost, *crossing);
  out.solve_comm = util::interpolate_series(solve_comm, *crossing);
  out.res_comm = util::interpolate_series(res_comm, *crossing);
  out.relaxations_per_n =
      util::interpolate_series(relaxations, *crossing) /
      static_cast<double>(n);
  // Mean active fraction over the steps leading to the crossing.
  const auto upto = std::min<std::size_t>(
      active_ranks.size(),
      static_cast<std::size_t>(std::ceil(std::max(1.0, *crossing))));
  double sum = 0.0;
  for (std::size_t k = 0; k < upto; ++k) {
    sum += static_cast<double>(active_ranks[k]);
  }
  out.active_fraction =
      upto == 0 ? 0.0
                : sum / (static_cast<double>(upto) *
                         static_cast<double>(num_ranks));
  return out;
}

double DistRunResult::mean_step_time() const {
  if (steps_taken() == 0) return 0.0;
  return model_time.back() / static_cast<double>(steps_taken());
}

double DistRunResult::mean_step_comm() const {
  if (steps_taken() == 0) return 0.0;
  return comm_cost.back() / static_cast<double>(steps_taken());
}

double DistRunResult::mean_active_fraction() const {
  if (steps_taken() == 0) return 0.0;
  double sum = 0.0;
  for (index_t a : active_ranks) sum += static_cast<double>(a);
  return sum / (static_cast<double>(steps_taken()) *
                static_cast<double>(num_ranks));
}

std::unique_ptr<DistStationarySolver> make_dist_solver(
    DistMethod method, const DistLayout& layout, simmpi::Runtime& rt,
    std::span<const value_t> b, std::span<const value_t> x0,
    const DistRunOptions& opt) {
  switch (method) {
    case DistMethod::kBlockJacobi:
      return std::make_unique<BlockJacobi>(layout, rt, b, x0);
    case DistMethod::kParallelSouthwell:
      return std::make_unique<ParallelSouthwell>(
          layout, rt, b, x0, opt.ps_explicit_residual_updates);
    case DistMethod::kDistributedSouthwell:
      return std::make_unique<DistributedSouthwell>(layout, rt, b, x0,
                                                    opt.ds);
    case DistMethod::kMulticolorBlockGs:
      return std::make_unique<MulticolorBlockGs>(layout, rt, b, x0);
  }
  DSOUTH_CHECK(false);
  return nullptr;
}

DistRunResult run_distributed(DistMethod method, const DistLayout& layout,
                              std::span<const value_t> b,
                              std::span<const value_t> x0,
                              const DistRunOptions& opt) {
  // All construction, attachment, stepping and stop rules live in
  // RunHarness (harness.hpp), shared with the batched and elastic drivers.
  RunHarness h(method, layout, b, x0, opt);
  DistRunResult result;
  h.init_result(result);
  h.record_state(result);
  StopRules stop(opt, result.residual_norm.front());
  if (opt.profiler) opt.profiler->begin_alloc_window();
  for (index_t k = 0; k < opt.max_parallel_steps; ++k) {
    h.step(result);
    if (stop.stop(result)) break;
  }
  h.drain_if_async();
  if (opt.profiler) opt.profiler->end_alloc_window();
  result.final_x = h.solver().gather_x();
  h.fill_totals(result);
  h.finish(result);
  return result;
}

DistRunResult run_distributed(DistMethod method, const CsrMatrix& a,
                              const graph::Partition& partition,
                              std::span<const value_t> b,
                              std::span<const value_t> x0,
                              const DistRunOptions& opt) {
  DistLayout layout(a, partition);
  return run_distributed(method, layout, b, x0, opt);
}

}  // namespace dsouth::dist
