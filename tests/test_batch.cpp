/// Tests for batched multi-tenant serving (DESIGN.md §14, docs/serving.md):
/// the tenant-frame codec, the batched SoA kernels' per-lane bit-identity
/// (including the signed-zero subtlety), ChannelSet's batch sink and
/// ship_batch's (peer, tag) grouping with per-tenant accounting, the
/// runtime's tenant tallies across reset_stats(), the B = 1 degeneracy
/// (byte-identical to run_distributed — iterates AND traces — for all four
/// solvers, both backends, composed with coalescing / async / faults /
/// node routing), and the B >= 2 serving invariants: per-tenant
/// trajectories bit-identical to solo runs, cross-backend bit-identity,
/// physical-message reduction with logical invariance, dropout that
/// never perturbs the surviving tenants, and every attachment of the
/// shared run harness (async, node routing, faults, tracer, profiler)
/// composed in one B >= 2 run.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "dist/batch.hpp"
#include "dist/driver.hpp"
#include "dist/layout.hpp"
#include "graph/partition.hpp"
#include "kernels/kernels.hpp"
#include "prof/prof.hpp"
#include "simmpi/rank_context.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "trace/export.hpp"
#include "util/rng.hpp"
#include "wire/comm_plan.hpp"
#include "wire/wire.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

// ---------------------------------------------------------------------------
// Tenant-frame codec.

TEST(TenantFrame, RoundTripsEntriesInOrder) {
  const std::vector<double> b0 = {1.5, -2.5, 3.0};
  const std::vector<double> b1 = {7.0};
  const std::vector<double> b2 = {0.25, 0.5};
  const wire::TenantEntry entries[] = {{0, b0}, {3, b1}, {1, b2}};
  const std::size_t lens[] = {3, 1, 2};
  std::vector<double> frame(wire::tenant_frame_doubles(lens));
  EXPECT_EQ(frame.size(), 3u + 3 * 2 + 6);
  wire::encode_tenant_frame(entries, frame);
  EXPECT_TRUE(wire::is_tenant_frame(frame));
  EXPECT_FALSE(wire::is_frame(frame));
  EXPECT_FALSE(wire::is_forward_frame(frame));

  std::vector<int> tenants;
  std::vector<std::vector<double>> bodies;
  wire::for_each_tenant(frame, [&](const wire::TenantEntry& e) {
    tenants.push_back(e.tenant);
    bodies.emplace_back(e.body.begin(), e.body.end());
  });
  EXPECT_EQ(tenants, (std::vector<int>{0, 3, 1}));
  ASSERT_EQ(bodies.size(), 3u);
  EXPECT_EQ(bodies[0], b0);
  EXPECT_EQ(bodies[1], b1);
  EXPECT_EQ(bodies[2], b2);
}

TEST(TenantFrame, MalformedFramesThrowStructuredErrors) {
  const std::vector<double> body = {1.0, 2.0};
  const wire::TenantEntry entries[] = {{2, body}};
  const std::size_t lens[] = {2};
  std::vector<double> frame(wire::tenant_frame_doubles(lens));
  wire::encode_tenant_frame(entries, frame);
  auto sink = [](const wire::TenantEntry&) {};
  auto mutate = [&](std::size_t i, double v) {
    std::vector<double> bad = frame;
    bad[i] = v;
    return bad;
  };

  // Wrong magic: not a tenant frame at all, and the walker refuses it.
  EXPECT_FALSE(wire::is_tenant_frame(mutate(0, 0.0)));
  EXPECT_THROW(wire::for_each_tenant(mutate(0, 0.0), sink),
               wire::DecodeError);
  // Bad version / non-integral count / negative tenant / zero or
  // non-integral body length.
  EXPECT_THROW(wire::for_each_tenant(mutate(1, 99.0), sink),
               wire::DecodeError);
  EXPECT_THROW(wire::for_each_tenant(mutate(2, 1.5), sink),
               wire::DecodeError);
  EXPECT_THROW(wire::for_each_tenant(mutate(3, -1.0), sink),
               wire::DecodeError);
  EXPECT_THROW(wire::for_each_tenant(mutate(4, 0.0), sink),
               wire::DecodeError);
  EXPECT_THROW(wire::for_each_tenant(mutate(4, 2.5), sink),
               wire::DecodeError);
  // Truncated body and trailing garbage.
  std::vector<double> cut(frame.begin(), frame.end() - 1);
  EXPECT_THROW(wire::for_each_tenant(std::span<const double>(cut), sink),
               wire::DecodeError);
  std::vector<double> extra = frame;
  extra.push_back(9.0);
  EXPECT_THROW(wire::for_each_tenant(std::span<const double>(extra), sink),
               wire::DecodeError);
}

// ---------------------------------------------------------------------------
// Batched kernels: per-lane bit-identity with the scalar ones.

CsrMatrix kernel_matrix() {
  return sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(7, 7)).a;
}

TEST(Kernels, GsSweepBatchMatchesScalarPerLaneBitwise) {
  const CsrMatrix a = kernel_matrix();
  const auto m = static_cast<std::size_t>(a.rows());
  for (std::size_t lanes : {1u, 3u, 4u, 8u}) {
    // Scalar reference state per lane.
    std::vector<std::vector<value_t>> xs(lanes), rs(lanes);
    util::Rng rng(0xBA7C0 + lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      xs[l].resize(m);
      rs[l].resize(m);
      rng.fill_uniform(xs[l], -1.0, 1.0);
      rng.fill_uniform(rs[l], -1.0, 1.0);
      // Exercise the per-lane zero-delta skip, including the signed zero
      // the masked-arithmetic shortcut would destroy.
      rs[l][l % m] = 0.0;
      rs[l][(l + 3) % m] = -0.0;
    }
    // SoA copies.
    std::vector<value_t> xb(m * lanes), rb(m * lanes);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        xb[i * lanes + l] = xs[l][i];
        rb[i * lanes + l] = rs[l][i];
      }
    }
    double scalar_flops = 0.0;
    for (std::size_t l = 0; l < lanes; ++l) {
      scalar_flops += kernels::gs_sweep(a, xs[l], rs[l]);
    }
    const double batch_flops = kernels::gs_sweep_batch(a, lanes, xb, rb);
    EXPECT_EQ(batch_flops, scalar_flops);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        // Bit-exact, sign of zero included.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(xb[i * lanes + l]),
                  std::bit_cast<std::uint64_t>(xs[l][i]))
            << "x row " << i << " lane " << l << " of " << lanes;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(rb[i * lanes + l]),
                  std::bit_cast<std::uint64_t>(rs[l][i]))
            << "r row " << i << " lane " << l << " of " << lanes;
      }
    }
  }
}

TEST(Kernels, NormSqBatchMatchesScalarPerLaneBitwise) {
  const std::size_t m = 33;
  for (std::size_t lanes : {1u, 2u, 5u, 16u}) {
    std::vector<std::vector<value_t>> rs(lanes);
    std::vector<value_t> rb(m * lanes);
    util::Rng rng(0x5EED + lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      rs[l].resize(m);
      rng.fill_uniform(rs[l], -2.0, 2.0);
      for (std::size_t i = 0; i < m; ++i) rb[i * lanes + l] = rs[l][i];
    }
    std::vector<value_t> out(lanes, 0.0);
    kernels::norm_sq_batch(rb, lanes, out);
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(out[l], kernels::norm_sq(rs[l])) << "lane " << l;
    }
    // Accumulators carry across blocks: two calls over disjoint row halves
    // produce the SAME addition sequence per lane as one full call, so the
    // split is bitwise invisible (how the coordinator walks rank blocks).
    const std::size_t half_rows = m / 2;
    std::vector<value_t> acc(lanes, 0.0);
    const auto all = std::span<const value_t>(rb);
    kernels::norm_sq_batch(all.first(half_rows * lanes), lanes, acc);
    kernels::norm_sq_batch(all.subspan(half_rows * lanes), lanes, acc);
    for (std::size_t l = 0; l < lanes; ++l) {
      EXPECT_EQ(acc[l], out[l]) << "split lane " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// ChannelSet batch sink + ship_batch grouping.

TEST(ShipBatch, GroupsByPeerAndTagWithPerTenantAccounting) {
  // Two ranks, one directed channel each way, width 2.
  std::vector<std::vector<wire::CommPlan::Peer>> peers(2);
  peers[0].push_back({1, 2, 2});
  peers[1].push_back({0, 2, 2});
  const wire::CommPlan plan(std::move(peers));

  simmpi::Runtime rt(2);
  rt.set_num_tenants(2);
  wire::ChannelSet s0(plan, 0), s1(plan, 0);
  s0.set_batch_staging(true);
  s1.set_batch_staging(true);
  EXPECT_TRUE(s0.batch_staging());

  simmpi::RankContext ctx(rt, 0);
  // Tenant 0: one kSolve record. Tenant 1: one kSolve and one kResidual.
  {
    auto rec = s0.open(ctx, 0, wire::RecordType::kGhostDelta);
    rec.dx[0] = 1.0;
    rec.dx[1] = 2.0;
    s0.flush(ctx);
  }
  {
    auto rec = s1.open(ctx, 0, wire::RecordType::kGhostDelta);
    rec.dx[0] = 3.0;
    rec.dx[1] = 4.0;
    auto rn = s1.open(ctx, 0, wire::RecordType::kResidualNorm, 0.625);
    (void)rn;
    s1.flush(ctx);
  }
  wire::ChannelSet* sets[] = {&s0, &s1};
  const int tenants[] = {0, 1};
  wire::ChannelSet::ship_batch(ctx, sets, tenants);
  // Buffers are cleared; a second ship with nothing staged sends nothing.
  EXPECT_EQ(s0.buffered(0), 0u);
  EXPECT_EQ(s1.buffered(0), 0u);
  wire::ChannelSet::ship_batch(ctx, sets, tenants);
  rt.fence();

  // One physical frame per (peer, tag): kSolve first (tag-enum order).
  const auto win = rt.window(1);
  ASSERT_EQ(win.size(), 2u);
  EXPECT_EQ(win[0].tag, simmpi::MsgTag::kSolve);
  EXPECT_EQ(win[1].tag, simmpi::MsgTag::kResidual);
  ASSERT_TRUE(wire::is_tenant_frame(win[0].payload));
  ASSERT_TRUE(wire::is_tenant_frame(win[1].payload));
  std::vector<int> solve_tenants;
  wire::for_each_tenant(win[0].payload, [&](const wire::TenantEntry& e) {
    solve_tenants.push_back(e.tenant);
    ASSERT_EQ(e.body.size(), 2u);  // kGhostDelta is headerless: nb doubles
    EXPECT_EQ(e.body[0], e.tenant == 0 ? 1.0 : 3.0);
  });
  EXPECT_EQ(solve_tenants, (std::vector<int>{0, 1}));
  std::vector<int> res_tenants;
  wire::for_each_tenant(win[1].payload, [&](const wire::TenantEntry& e) {
    res_tenants.push_back(e.tenant);
    const auto rec = wire::decode_record(wire::Family::kNorm, e.body, 2);
    EXPECT_EQ(rec.norm2, 0.625);
  });
  EXPECT_EQ(res_tenants, (std::vector<int>{1}));

  // Physical = 2 frames, logical = 3 records; per-tenant attribution.
  const auto& cs = rt.stats();
  EXPECT_EQ(cs.total_messages(), 2u);
  EXPECT_EQ(cs.logical_messages(), 3u);
  EXPECT_EQ(cs.num_tenants(), 2u);
  EXPECT_EQ(cs.tenant_records(0), 1u);
  EXPECT_EQ(cs.tenant_records(1), 2u);
  EXPECT_EQ(cs.tenant_doubles(0), 2u);
  const auto norm_len =
      wire::encoded_doubles(wire::RecordType::kResidualNorm, 2);
  EXPECT_EQ(cs.tenant_doubles(1), 2u + norm_len);
}

TEST(ShipBatch, TenantTalliesSurviveMidEpochResetStats) {
  simmpi::Runtime rt(2);
  rt.set_num_tenants(3);
  {
    simmpi::RankContext ctx(rt, 0);
    auto out = ctx.stage(1, simmpi::MsgTag::kSolve, 4, 1);
    for (auto& v : out) v = 1.0;
    ctx.add_tenant_records(2, 1, 4);
  }
  rt.fence();
  EXPECT_EQ(rt.stats().tenant_records(2), 1u);
  EXPECT_EQ(rt.stats().tenant_doubles(2), 4u);
  EXPECT_EQ(rt.stats().tenant_records(0), 0u);

  // Tallies staged mid-epoch are discarded by reset_stats(), not leaked
  // into the next fence (the between-batched-runs regression).
  {
    simmpi::RankContext ctx(rt, 1);
    auto out = ctx.stage(0, simmpi::MsgTag::kSolve, 2, 1);
    for (auto& v : out) v = 2.0;
    ctx.add_tenant_records(1, 1, 2);
  }
  rt.reset_stats();
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(rt.stats().tenant_records(t), 0u) << t;
    EXPECT_EQ(rt.stats().tenant_doubles(t), 0u) << t;
  }
  rt.fence();  // the staged message still delivers, but charges no tenant
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(rt.stats().tenant_records(t), 0u) << t;
    EXPECT_EQ(rt.stats().tenant_doubles(t), 0u) << t;
  }
  // Slot count survives reset; out-of-range tenants are rejected.
  EXPECT_EQ(rt.stats().num_tenants(), 3u);
}

// ---------------------------------------------------------------------------
// Driver-level: problem setup shared by the serving tests.

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(index_t nx, index_t ranks, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, nx)).a;
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  p.part = graph::partition_recursive_bisection(
      graph::Graph::from_matrix_structure(p.a), ranks);
  return p;
}

std::string trace_bytes(const std::shared_ptr<const trace::TraceLog>& log) {
  EXPECT_TRUE(log != nullptr);
  if (!log) return {};
  std::ostringstream os;
  trace::write_jsonl(os, *log, {});
  return os.str();
}

const std::vector<dist::DistMethod>& all_methods() {
  static const std::vector<dist::DistMethod> ms = {
      dist::DistMethod::kBlockJacobi, dist::DistMethod::kMulticolorBlockGs,
      dist::DistMethod::kParallelSouthwell,
      dist::DistMethod::kDistributedSouthwell};
  return ms;
}

// ---------------------------------------------------------------------------
// B = 1 degeneracy: byte-identical to the unbatched driver, composed with
// every comm-stack feature, on both backends.

TEST(BatchDegeneracy, SingleTenantIsByteIdenticalToUnbatched) {
  auto p = make_problem(10, 6, 23);
  dist::DistLayout layout(p.a, p.part);
  const dist::DistLayout* layouts[] = {&layout};

  struct Config {
    const char* name;
    dist::DistRunOptions opt;
  };
  std::vector<Config> configs;
  {
    dist::DistRunOptions base;
    base.max_parallel_steps = 12;
    base.trace.enabled = true;
    configs.push_back({"plain", base});
    auto coal = base;
    coal.coalesce_messages = true;
    configs.push_back({"coalesce", coal});
    auto async = base;
    async.async = true;
    configs.push_back({"async", async});
    auto faulty = base;
    faulty.resilience.enabled = true;
    faulty.faults.defaults.drop_probability = 0.05;
    configs.push_back({"faults", faulty});
    auto routed = base;
    routed.num_nodes = 2;
    configs.push_back({"node-route", routed});
  }
  for (const auto backend :
       {simmpi::BackendKind::kSequential, simmpi::BackendKind::kThreadPool}) {
    for (const auto& cfg : configs) {
      for (const auto m : all_methods()) {
        auto opt = cfg.opt;
        opt.backend = backend;
        if (backend == simmpi::BackendKind::kThreadPool) opt.num_threads = 3;
        const auto solo = dist::run_distributed(m, layout, p.b, p.x0, opt);
        const dist::TenantSpec spec{p.b, p.x0, 0.0};
        const auto batched =
            dist::run_distributed_batch(m, layouts, {&spec, 1}, opt);
        const std::string what = std::string(dist::method_name(m)) + "/" +
                                 cfg.name + "/" + solo.backend;
        EXPECT_EQ(batched.batch, 1u);
        ASSERT_EQ(batched.tenants.size(), 1u);
        EXPECT_EQ(batched.tenants[0].residual_norm, solo.residual_norm)
            << what;
        EXPECT_EQ(batched.tenants[0].final_x, solo.final_x) << what;
        EXPECT_EQ(batched.comm_totals.msgs, solo.comm_totals.msgs) << what;
        EXPECT_EQ(batched.comm_totals.bytes, solo.comm_totals.bytes) << what;
        EXPECT_EQ(batched.comm_totals.msgs_logical,
                  solo.comm_totals.msgs_logical)
            << what;
        EXPECT_EQ(trace_bytes(batched.trace_log), trace_bytes(solo.trace_log))
            << what;
        ASSERT_TRUE(batched.solo.has_value());
        EXPECT_EQ(batched.solo->residual_norm, solo.residual_norm) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// B >= 2: per-tenant trajectories are the solo ones, bit for bit.

TEST(BatchServing, PerTenantTrajectoriesMatchSoloBitwise) {
  auto p = make_problem(10, 6, 31);
  dist::DistLayout layout(p.a, p.part);
  // Tenant 0: the base system. Tenant 1: different RHS/x0 on the same
  // matrix. Tenant 2: different coefficients (seeded sweep, same sparsity).
  const CsrMatrix a2 = sparse::make_tenant_variant(p.a, 0x7e4a47, 0.25);
  dist::DistLayout layout2(a2, p.part);
  std::vector<value_t> b1(p.b.size(), 0.0), x1(p.x0.size());
  util::Rng rng(97);
  rng.fill_uniform(x1, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, b1, x1);
  std::vector<value_t> x2 = p.x0;

  const dist::DistLayout* layouts[] = {&layout, &layout, &layout2};
  const dist::TenantSpec specs[] = {
      {p.b, p.x0, 0.0}, {b1, x1, 0.0}, {p.b, x2, 0.0}};

  dist::DistRunOptions opt;
  opt.max_parallel_steps = 15;
  for (const auto m : all_methods()) {
    const auto batched = dist::run_distributed_batch(m, layouts, specs, opt);
    ASSERT_EQ(batched.tenants.size(), 3u);
    std::uint64_t solo_msgs = 0;
    double solo_model_time = 0.0;
    for (std::size_t t = 0; t < 3; ++t) {
      const auto solo = dist::run_distributed(m, *layouts[t], specs[t].b,
                                              specs[t].x0, opt);
      const std::string what =
          std::string(dist::method_name(m)) + " tenant " + std::to_string(t);
      EXPECT_EQ(batched.tenants[t].residual_norm, solo.residual_norm) << what;
      EXPECT_EQ(batched.tenants[t].final_x, solo.final_x) << what;
      EXPECT_EQ(batched.tenants[t].relaxations,
                static_cast<std::uint64_t>(solo.relaxations.back()))
          << what;
      // Logical invariance: the tenant's share of the shared frames is
      // exactly its solo logical traffic, records and doubles both.
      EXPECT_EQ(batched.tenants[t].wire_records,
                solo.comm_totals.msgs_logical)
          << what;
      EXPECT_EQ(batched.tenants[t].wire_doubles,
                (solo.comm_totals.bytes -
                 simmpi::kMessageHeaderBytes * solo.comm_totals.msgs) /
                    8)
          << what;
      solo_msgs += solo.comm_totals.msgs;
      solo_model_time += solo.model_time.back();
    }
    // The whole point: fewer physical messages and less modeled time than
    // running the B tenants separately.
    EXPECT_LT(batched.comm_totals.msgs, solo_msgs) << dist::method_name(m);
    EXPECT_LT(batched.model_time, solo_model_time) << dist::method_name(m);
    EXPECT_EQ(batched.comm_totals.msgs_logical,
              batched.tenants[0].wire_records +
                  batched.tenants[1].wire_records +
                  batched.tenants[2].wire_records)
        << dist::method_name(m);
  }
}

TEST(BatchServing, ThreadedBatchIsBitIdenticalToSequential) {
  auto p = make_problem(10, 6, 41);
  dist::DistLayout layout(p.a, p.part);
  std::vector<value_t> b1(p.b.size(), 0.0), x1(p.x0.size());
  util::Rng rng(5);
  rng.fill_uniform(x1, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, b1, x1);
  const dist::DistLayout* layouts[] = {&layout};
  const dist::TenantSpec specs[] = {{p.b, p.x0, 0.0}, {b1, x1, 0.0}};

  dist::DistRunOptions seq;
  seq.max_parallel_steps = 12;
  auto thr = seq;
  thr.backend = simmpi::BackendKind::kThreadPool;
  thr.num_threads = 3;
  for (const auto m : {dist::DistMethod::kParallelSouthwell,
                       dist::DistMethod::kDistributedSouthwell}) {
    const auto a = dist::run_distributed_batch(m, layouts, specs, seq);
    const auto b = dist::run_distributed_batch(m, layouts, specs, thr);
    for (std::size_t t = 0; t < 2; ++t) {
      EXPECT_EQ(a.tenants[t].residual_norm, b.tenants[t].residual_norm)
          << dist::method_name(m) << " tenant " << t;
      EXPECT_EQ(a.tenants[t].final_x, b.tenants[t].final_x)
          << dist::method_name(m) << " tenant " << t;
      EXPECT_EQ(a.tenants[t].wire_records, b.tenants[t].wire_records);
      EXPECT_EQ(a.tenants[t].wire_doubles, b.tenants[t].wire_doubles);
    }
    EXPECT_EQ(a.comm_totals.msgs, b.comm_totals.msgs);
    EXPECT_EQ(a.comm_totals.bytes, b.comm_totals.bytes);
    EXPECT_EQ(a.model_time, b.model_time);
  }
}

TEST(BatchServing, DropoutNeverPerturbsSurvivors) {
  auto p = make_problem(10, 6, 53);
  dist::DistLayout layout(p.a, p.part);
  std::vector<value_t> b1(p.b.size(), 0.0), x1(p.x0.size());
  util::Rng rng(11);
  rng.fill_uniform(x1, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, b1, x1);
  const dist::DistLayout* layouts[] = {&layout};
  // Tenant 1 converges (loose target) and drops out mid-run; tenants 0
  // and 2 run all steps.
  const dist::TenantSpec specs[] = {
      {p.b, p.x0, 0.0}, {b1, x1, 0.5}, {b1, x1, 0.0}};
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 20;
  const auto m = dist::DistMethod::kDistributedSouthwell;
  const auto batched = dist::run_distributed_batch(m, layouts, specs, opt);
  ASSERT_EQ(batched.tenants.size(), 3u);
  EXPECT_TRUE(batched.tenants[1].converged);
  EXPECT_LT(batched.tenants[1].steps, 20);
  EXPECT_EQ(batched.tenants[1].residual_norm.size(),
            static_cast<std::size_t>(batched.tenants[1].steps) + 1);

  // The dropped tenant's trajectory equals its solo stop_at_residual run…
  auto stop_opt = opt;
  stop_opt.stop_at_residual = 0.5;
  const auto solo1 = dist::run_distributed(m, layout, b1, x1, stop_opt);
  EXPECT_EQ(batched.tenants[1].residual_norm, solo1.residual_norm);
  // …and the SURVIVORS' trajectories equal full-length solo runs: the
  // dropout changed the shared wire, not any surviving tenant's stream.
  const auto solo0 = dist::run_distributed(m, layout, p.b, p.x0, opt);
  const auto solo2 = dist::run_distributed(m, layout, b1, x1, opt);
  EXPECT_EQ(batched.tenants[0].residual_norm, solo0.residual_norm);
  EXPECT_EQ(batched.tenants[0].final_x, solo0.final_x);
  EXPECT_EQ(batched.tenants[2].residual_norm, solo2.residual_norm);
  EXPECT_EQ(batched.tenants[2].final_x, solo2.final_x);
  // Dropped tenants stop paying for the wire once they leave.
  EXPECT_LT(batched.tenants[1].wire_records, batched.tenants[2].wire_records);
}

TEST(BatchServing, UnsupportedObserverPoliciesAreRejected) {
  auto p = make_problem(8, 4, 3);
  dist::DistLayout layout(p.a, p.part);
  const dist::DistLayout* layouts[] = {&layout};
  const dist::TenantSpec specs[] = {{p.b, p.x0, 0.0}, {p.b, p.x0, 0.0}};
  dist::DistRunOptions opt;
  opt.watchdog.enabled = true;
  EXPECT_THROW(dist::run_distributed_batch(dist::DistMethod::kBlockJacobi,
                                           layouts, specs, opt),
               util::CheckError);
  dist::DistRunOptions opt2;
  opt2.divergence_abort = 1e6;
  EXPECT_THROW(dist::run_distributed_batch(dist::DistMethod::kBlockJacobi,
                                           layouts, specs, opt2),
               util::CheckError);
}

TEST(BatchServing, TracedBatchedRunIsDeterministic) {
  auto p = make_problem(10, 6, 61);
  dist::DistLayout layout(p.a, p.part);
  const dist::DistLayout* layouts[] = {&layout};
  std::vector<value_t> b1(p.b.size(), 0.0), x1(p.x0.size());
  util::Rng rng(13);
  rng.fill_uniform(x1, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, b1, x1);
  const dist::TenantSpec specs[] = {{p.b, p.x0, 0.0}, {b1, x1, 0.0}};
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 10;
  opt.trace.enabled = true;
  auto thr = opt;
  thr.backend = simmpi::BackendKind::kThreadPool;
  thr.num_threads = 3;
  const auto a = dist::run_distributed_batch(
      dist::DistMethod::kDistributedSouthwell, layouts, specs, opt);
  const auto b = dist::run_distributed_batch(
      dist::DistMethod::kDistributedSouthwell, layouts, specs, thr);
  // The merged event stream of a batched run is byte-identical across
  // backends, like every other trace in the library.
  EXPECT_EQ(trace_bytes(a.trace_log), trace_bytes(b.trace_log));
}

TEST(BatchServing, SharedHarnessAttachmentsAreBitIdenticalAcrossBackends) {
  // Everything a batch takes from the shared RunHarness at once: async
  // delivery, node routing, message faults, tracer and profiler, B = 4.
  auto p = make_problem(10, 6, 71);
  dist::DistLayout layout(p.a, p.part);
  const dist::DistLayout* layouts[] = {&layout};
  std::vector<std::vector<value_t>> bs(3), xs(3);
  std::vector<dist::TenantSpec> specs = {{p.b, p.x0, 0.0}};
  for (std::size_t t = 0; t < 3; ++t) {
    bs[t].assign(p.b.size(), 0.0);
    xs[t].resize(p.x0.size());
    util::Rng rng(100 + t);
    rng.fill_uniform(xs[t], -1.0, 1.0);
    sparse::normalize_initial_residual(p.a, bs[t], xs[t]);
    specs.push_back({bs[t], xs[t], 0.0});
  }
  dist::DistRunOptions seq;
  seq.max_parallel_steps = 12;
  seq.async = true;
  seq.num_nodes = 2;
  seq.node_route = true;
  seq.faults.defaults.drop_probability = 0.05;
  seq.faults.defaults.duplicate_probability = 0.05;
  seq.trace.enabled = true;
  auto thr = seq;
  thr.backend = simmpi::BackendKind::kThreadPool;
  thr.num_threads = 3;
  for (const auto m : {dist::DistMethod::kParallelSouthwell,
                       dist::DistMethod::kDistributedSouthwell}) {
    prof::Profiler prof_seq(layout.num_ranks());
    prof::Profiler prof_thr(layout.num_ranks());
    seq.profiler = &prof_seq;
    thr.profiler = &prof_thr;
    const auto a = dist::run_distributed_batch(m, layouts, specs, seq);
    const auto b = dist::run_distributed_batch(m, layouts, specs, thr);
    ASSERT_EQ(a.tenants.size(), 4u);
    ASSERT_EQ(b.tenants.size(), 4u);
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(a.tenants[t].final_x, b.tenants[t].final_x)
          << dist::method_name(m) << " tenant " << t;
    }
    const std::string jsonl = trace_bytes(a.trace_log);
    EXPECT_EQ(jsonl, trace_bytes(b.trace_log)) << dist::method_name(m);
    for (const char* gauge : {"prof.alloc_tracking", "prof.allocs_total",
                              "prof.allocs_bytes", "prof.frees_total"}) {
      EXPECT_NE(jsonl.find(gauge), std::string::npos)
          << dist::method_name(m) << " " << gauge;
    }
  }
}

}  // namespace
}  // namespace dsouth
