/// Google-benchmark microbenchmarks for the library's hot kernels: SpMV,
/// the local Gauss–Seidel sweep, Sequential Southwell's heap-driven
/// relaxation, graph coloring, partitioning, and one full parallel step of
/// each distributed method. These guard the constant factors the
/// simulation's throughput depends on (all experiment "timings" come from
/// the machine model, not from these).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/scalar_engine.hpp"
#include "core/southwell.hpp"
#include "dist/driver.hpp"
#include "kernels/kernels.hpp"
#include "graph/coloring.hpp"
#include "graph/partition.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/indexed_heap.hpp"
#include "util/rng.hpp"
#include "wire/wire.hpp"

namespace dsouth {
namespace {

sparse::CsrMatrix bench_matrix(sparse::index_t dim) {
  return sparse::symmetric_unit_diagonal_scale(
             sparse::poisson2d_5pt(dim, dim))
      .a;
}

void BM_Spmv(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto a = bench_matrix(dim);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> y(x.size());
  for (auto _ : state) {
    a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_Spmv)->Arg(64)->Arg(256);

void BM_LocalGsSweep(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto a = bench_matrix(dim);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<double> r(x.size(), 1.0);
  // The solvers sweep with the diagonal their layout cached.
  const auto diag = a.diagonal();
  for (auto _ : state) {
    kernels::gs_sweep(a, diag, x, r);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * a.rows());
}
BENCHMARK(BM_LocalGsSweep)->Arg(64)->Arg(256);

void BM_GsSweepBatch(benchmark::State& state) {
  // Batched SoA sweep (kernels.hpp): `lanes` tenants relaxed together,
  // batch innermost so the per-row arithmetic vectorizes across tenants.
  // Compare items/sec against lanes = 1 (and BM_LocalGsSweep) to see the
  // SIMD win; per-lane results are bit-identical to the scalar sweep
  // (tests/test_batch.cpp), so the speedup is free.
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  auto a = bench_matrix(dim);
  const auto m = static_cast<std::size_t>(a.rows());
  std::vector<double> x(m * lanes, 0.0);
  std::vector<double> r(m * lanes);
  util::Rng rng(7);
  rng.fill_uniform(r, -1.0, 1.0);
  for (auto _ : state) {
    kernels::gs_sweep_batch(a, lanes, x, r);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetLabel("lanes=" + std::to_string(lanes));
  state.SetItemsProcessed(state.iterations() * a.rows() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_GsSweepBatch)
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({64, 8})
    ->Args({64, 16})
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({256, 16});

void BM_NormSqBatch(benchmark::State& state) {
  // Per-lane residual norms of a batched SoA block — the coordinator's
  // per-step convergence sweep (dist/batch.cpp).
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  std::vector<double> r(rows * lanes);
  util::Rng rng(9);
  rng.fill_uniform(r, -1.0, 1.0);
  std::vector<double> out(lanes);
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0.0);
    kernels::norm_sq_batch(r, lanes, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel("lanes=" + std::to_string(lanes));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows * lanes));
}
BENCHMARK(BM_NormSqBatch)
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Args({4096, 16});

void BM_SequentialSouthwellSweep(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto a = bench_matrix(dim);
  util::Rng rng(1);
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  rng.fill_uniform(b, -1.0, 1.0);
  std::vector<double> x0(b.size(), 0.0);
  core::ScalarRunOptions opt;
  opt.max_sweeps = 1;
  opt.record_each_relaxation = false;
  for (auto _ : state) {
    auto h = core::run_sequential_southwell(a, b, x0, opt);
    benchmark::DoNotOptimize(h.points.data());
  }
  state.SetItemsProcessed(state.iterations() * a.rows());
}
BENCHMARK(BM_SequentialSouthwellSweep)->Arg(64);

void BM_IndexedHeapChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  for (auto _ : state) {
    util::IndexedMaxHeap<double> heap(n);
    for (std::size_t i = 0; i < n; ++i) heap.push(i, rng.next_double());
    for (std::size_t i = 0; i < n; ++i) {
      heap.update(static_cast<std::size_t>(rng.next_below(n)),
                  rng.next_double());
    }
    while (!heap.empty()) benchmark::DoNotOptimize(heap.pop());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(3 * n));
}
BENCHMARK(BM_IndexedHeapChurn)->Arg(1024)->Arg(16384);

void BM_GreedyColoring(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto g = graph::Graph::from_matrix_structure(
      sparse::poisson2d_9pt(dim, dim));
  for (auto _ : state) {
    auto c = graph::greedy_coloring(g);
    benchmark::DoNotOptimize(c.color.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_GreedyColoring)->Arg(128);

void BM_PartitionBisection(benchmark::State& state) {
  const auto dim = static_cast<sparse::index_t>(state.range(0));
  auto g = graph::Graph::from_matrix_structure(
      sparse::poisson2d_5pt(dim, dim));
  for (auto _ : state) {
    auto p = graph::partition_recursive_bisection(g, 64);
    benchmark::DoNotOptimize(p.part.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_PartitionBisection)->Arg(64)->Arg(128);

void BM_DistStep(benchmark::State& state) {
  const auto method = static_cast<dist::DistMethod>(state.range(0));
  auto a = bench_matrix(96);
  util::Rng rng(3);
  std::vector<double> b(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<double> x0(b.size());
  rng.fill_uniform(x0, -1.0, 1.0);
  sparse::normalize_initial_residual(a, b, x0);
  auto g = graph::Graph::from_matrix_structure(a);
  auto part = graph::partition_recursive_bisection(g, 128);
  dist::DistLayout layout(a, part);
  simmpi::Runtime rt(128);
  dist::DistRunOptions opt;
  auto solver = dist::make_dist_solver(method, layout, rt, b, x0, opt);
  for (auto _ : state) {
    auto stats = solver->step();
    benchmark::DoNotOptimize(stats.relaxations);
  }
  state.SetLabel(dist::method_name(method));
}
BENCHMARK(BM_DistStep)
    ->Arg(static_cast<int>(dist::DistMethod::kBlockJacobi))
    ->Arg(static_cast<int>(dist::DistMethod::kParallelSouthwell))
    ->Arg(static_cast<int>(dist::DistMethod::kDistributedSouthwell));

void BM_WireEncode(benchmark::State& state) {
  const auto nb = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(wire::encoded_doubles(
      wire::RecordType::kSolveUpdate, nb));
  for (auto _ : state) {
    auto rec = wire::begin_record(wire::RecordType::kSolveUpdate, 0.5, 0.25,
                                  out, nb);
    for (std::size_t i = 0; i < nb; ++i) {
      rec.dx[i] = static_cast<double>(i);
      rec.rb[i] = static_cast<double>(i) * 0.5;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_WireEncode)->Arg(8)->Arg(64);

void BM_WireDecode(benchmark::State& state) {
  const auto nb = static_cast<std::size_t>(state.range(0));
  std::vector<double> buf(wire::encoded_doubles(
      wire::RecordType::kSolveUpdate, nb));
  auto enc = wire::begin_record(wire::RecordType::kSolveUpdate, 0.5, 0.25,
                                buf, nb);
  for (std::size_t i = 0; i < nb; ++i) enc.dx[i] = enc.rb[i] = 1.0;
  double sink = 0.0;
  for (auto _ : state) {
    wire::for_each_record(wire::Family::kEstimate, buf, nb,
                          [&](const wire::Record& rec) {
                            sink += rec.norm2 + rec.dx[0] + rec.rb[nb - 1];
                          });
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_WireDecode)->Arg(8)->Arg(64);

void BM_WireFrameRoundTrip(benchmark::State& state) {
  // Coalesced frame: `count` Correction records for one peer, encoded and
  // then walked — the synthetic multi-record traffic the solvers' one
  // record per (neighbor, epoch) never produces.
  const auto count = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kNb = 16;
  const std::size_t len =
      wire::encoded_doubles(wire::RecordType::kCorrection, kNb);
  std::vector<wire::RecordType> types(count, wire::RecordType::kCorrection);
  std::vector<std::size_t> lengths(count, len);
  std::vector<double> bodies(count * len);
  for (std::size_t i = 0; i < count; ++i) {
    auto rec = wire::begin_record(
        wire::RecordType::kCorrection, 1.0, 2.0,
        std::span<double>(bodies).subspan(i * len, len), kNb);
    for (std::size_t g = 0; g < kNb; ++g) rec.rb[g] = static_cast<double>(g);
  }
  std::vector<double> frame(wire::frame_doubles(lengths));
  double sink = 0.0;
  for (auto _ : state) {
    wire::encode_frame(types, lengths, bodies, frame);
    wire::for_each_record(wire::Family::kEstimate, frame, kNb,
                          [&](const wire::Record& rec) { sink += rec.norm2; });
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_WireFrameRoundTrip)->Arg(2)->Arg(8);

void BM_ChannelStaging(benchmark::State& state) {
  // put()-with-copy vs stage()-in-place for one epoch of boundary traffic
  // between two ranks (range(1) selects the path). The pools make both
  // allocation-free once warm; stage() additionally skips the memcpy at
  // put time (the fence's delivery copy remains in both).
  const bool use_stage = state.range(1) != 0;
  const auto nb = static_cast<std::size_t>(state.range(0));
  simmpi::Runtime rt(2);
  std::vector<double> payload(nb, 1.5);
  for (auto _ : state) {
    if (use_stage) {
      auto out = rt.stage(0, 1, simmpi::MsgTag::kSolve, nb);
      for (std::size_t i = 0; i < nb; ++i) out[i] = 1.5;
    } else {
      rt.put(0, 1, simmpi::MsgTag::kSolve, payload);
    }
    rt.fence();
    rt.consume(1);
  }
  state.SetLabel(use_stage ? "stage" : "put");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nb));
}
BENCHMARK(BM_ChannelStaging)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1});

}  // namespace
}  // namespace dsouth

BENCHMARK_MAIN();
