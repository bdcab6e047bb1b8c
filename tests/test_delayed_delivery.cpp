/// Tests for the weak-delivery (message delay) model: runtime semantics,
/// and the robustness of the three distributed methods when one-sided
/// writes land late — the asynchronous regime the paper's deadlock
/// discussion (§2.4, §3) is ultimately about.

#include <gtest/gtest.h>

#include "dist/driver.hpp"
#include "faults/fault_plan.hpp"
#include "graph/partition.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "simmpi/rank_context.hpp"
#include "sparse/vec.hpp"
#include "util/rng.hpp"
#include "wire/comm_plan.hpp"
#include "wire/wire.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

TEST(DelayedDelivery, NoDelayModelDeliversNextFence) {
  simmpi::Runtime rt(2);
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  EXPECT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
}

TEST(DelayedDelivery, AllMessagesDelayedLandLater) {
  simmpi::DeliveryModel dm;
  dm.delay_probability = 1.0;
  dm.max_delay_epochs = 1;  // exactly one extra fence
  simmpi::Runtime rt(2, simmpi::MachineModel{}, dm);
  rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
  rt.fence();
  EXPECT_TRUE(rt.window(1).empty());
  EXPECT_EQ(rt.delayed_in_flight(), 1u);
  rt.fence();
  EXPECT_EQ(rt.window(1).size(), 1u);
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
}

TEST(DelayedDelivery, DrainDelaysFlushesEverything) {
  simmpi::DeliveryModel dm;
  dm.delay_probability = 1.0;
  dm.max_delay_epochs = 3;
  simmpi::Runtime rt(3, simmpi::MachineModel{}, dm);
  for (int k = 0; k < 5; ++k) {
    rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{double(k)});
    rt.put(2, 1, simmpi::MsgTag::kSolve, std::vector<double>{double(k)});
  }
  rt.drain_delayed();
  EXPECT_EQ(rt.delayed_in_flight(), 0u);
}

TEST(DelayedDelivery, DeterministicForSeed) {
  auto run = [] {
    simmpi::DeliveryModel dm;
    dm.delay_probability = 0.5;
    dm.seed = 42;
    simmpi::Runtime rt(2, simmpi::MachineModel{}, dm);
    std::vector<std::size_t> arrivals;
    for (int k = 0; k < 20; ++k) {
      rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{double(k)});
      rt.fence();
      arrivals.push_back(rt.window(1).size());
    }
    return arrivals;
  };
  EXPECT_EQ(run(), run());
}

TEST(DelayedDelivery, DropDoesNotShiftLaterDelays) {
  // Every delay is a keyed draw of its own message, so a fault that drops
  // message k leaves the delivery fence of every later message exactly
  // where the fault-free run put it.
  simmpi::DeliveryModel dm;
  dm.delay_probability = 0.5;
  dm.max_delay_epochs = 3;
  dm.seed = 11;
  constexpr int kEpochs = 24;
  constexpr int kPerEpoch = 3;
  constexpr int kMessages = kEpochs * kPerEpoch;
  const auto arrivals = [&](const faults::FaultSchedule* sched) {
    simmpi::Runtime rt(2, simmpi::MachineModel{}, dm);
    rt.set_fault_schedule(sched);
    std::vector<int> fence_of(kMessages, -1);
    for (int f = 0; f < kEpochs + dm.max_delay_epochs; ++f) {
      for (int i = 0; f < kEpochs && i < kPerEpoch; ++i) {
        rt.put(0, 1, simmpi::MsgTag::kSolve,
               std::vector<double>{double(f * kPerEpoch + i)});
      }
      rt.fence();
      for (const auto& m : rt.window(1)) {
        fence_of[static_cast<std::size_t>(m.payload[0])] = f;
      }
      rt.consume(1);
    }
    return fence_of;
  };
  const std::vector<int> clean = arrivals(nullptr);
  faults::FaultPlan plan;
  plan.defaults.drop_probability = 0.3;
  const faults::FaultSchedule sched(plan, 2);
  const std::vector<int> faulted = arrivals(&sched);

  int dropped = 0;
  int delayed = 0;
  for (int k = 0; k < kMessages; ++k) {
    const auto i = static_cast<std::size_t>(k);
    ASSERT_GE(clean[i], 0) << "msg " << k;
    if (clean[i] > k / kPerEpoch) ++delayed;
    if (faulted[i] < 0) {
      ++dropped;
    } else {
      EXPECT_EQ(faulted[i], clean[i]) << "msg " << k;
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(delayed, 0);
}

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

/// Every method keeps converging under moderate message delays (the
/// updates are linear corrections, so late application is still correct).
class DelayRobustness
    : public ::testing::TestWithParam<dist::DistMethod> {};

TEST_P(DelayRobustness, ConvergesUnderSingleEpochDelays) {
  // Delays bounded by one epoch preserve per-source ordering across the
  // two fences of a parallel step; every method stays convergent.
  auto p = make_problem(14, 12, 31);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 120;
  opt.delivery.delay_probability = 0.3;
  opt.delivery.max_delay_epochs = 1;
  auto r = dist::run_distributed(GetParam(), p.a, p.part, p.b, p.x0, opt);
  EXPECT_LT(r.residual_norm.back(), 0.05)
      << dist::method_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Methods, DelayRobustness,
    ::testing::Values(dist::DistMethod::kBlockJacobi,
                      dist::DistMethod::kParallelSouthwell,
                      dist::DistMethod::kDistributedSouthwell,
                      dist::DistMethod::kMulticolorBlockGs),
    [](const auto& info) {
      return std::string(dist::method_name(info.param));
    });

TEST(DelayRobustness, PlainDsCanLivelockUnderReordering) {
  // Pin the honest finding: multi-epoch delays can reorder a rank's own
  // messages, after which DS's Γ̃ bookkeeping lies permanently (a
  // neighbor's overestimate the owner believes it already corrected) and
  // the method stalls — while on the same delays Parallel Southwell's
  // unconditional re-advertising can self-heal. Neither outcome holds for
  // every delay pattern (PS stalls on some seeds too), so scan seeds until
  // one shows DS stalled and PS converged (deterministically).
  auto p = make_problem(14, 12, 31);
  bool found = false;
  for (std::uint64_t seed = 0; seed < 32 && !found; ++seed) {
    dist::DistRunOptions opt;
    opt.max_parallel_steps = 120;
    opt.delivery.delay_probability = 0.3;
    opt.delivery.max_delay_epochs = 3;
    opt.delivery.seed = seed;
    auto ds = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                    p.a, p.part, p.b, p.x0, opt);
    if (ds.residual_norm.back() <= 0.05) continue;  // DS did not stall
    auto ps = dist::run_distributed(dist::DistMethod::kParallelSouthwell,
                                    p.a, p.part, p.b, p.x0, opt);
    found = ps.residual_norm.back() < 0.05;  // PS self-healed
  }
  EXPECT_TRUE(found);
}

TEST(DelayRobustness, HeartbeatHardensDsAgainstReordering) {
  // The extension fix: a periodic unconditional residual broadcast bounds
  // the Γ̃ staleness and restores convergence in the same regime.
  auto p = make_problem(14, 12, 31);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 120;
  opt.delivery.delay_probability = 0.3;
  opt.delivery.max_delay_epochs = 3;
  opt.ds.heartbeat_period = 10;
  auto r = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, opt);
  EXPECT_LT(r.residual_norm.back(), 0.05);
}

TEST(DelayRobustness, HeartbeatIsFreeWithoutDelays) {
  // Heartbeats add messages but must not change convergence without
  // delays; with the period larger than the run they change nothing.
  auto p = make_problem(10, 8, 33);
  dist::DistRunOptions plain;
  plain.max_parallel_steps = 25;
  dist::DistRunOptions hb = plain;
  hb.ds.heartbeat_period = 100;  // never fires in 25 steps
  auto a = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, plain);
  auto b = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, hb);
  for (std::size_t k = 0; k < a.residual_norm.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.residual_norm[k], b.residual_norm[k]);
  }
}

TEST(DelayRobustness, ResidualStaysConsistentAfterDrain) {
  // Under delays, in-flight Δx makes the concatenated local residuals
  // differ from the true residual of the gathered iterate — but the local
  // view is exactly "true residual minus unapplied linear corrections",
  // so once everything lands the two agree. Verified via the solver
  // directly (the driver's run loop doesn't drain).
  auto p = make_problem(12, 8, 32);
  dist::DistLayout layout(p.a, p.part);
  simmpi::DeliveryModel dm;
  dm.delay_probability = 0.5;
  dm.max_delay_epochs = 2;
  simmpi::Runtime rt(8, simmpi::MachineModel{}, dm);
  dist::DistRunOptions opt;
  auto solver = dist::make_dist_solver(dist::DistMethod::kBlockJacobi,
                                       layout, rt, p.b, p.x0, opt);
  for (int k = 0; k < 10; ++k) solver->step();
  rt.drain_delayed();
  // Absorb what the drain delivered (Block Jacobi applies pending deltas
  // in its next step; emulate by one more step which first absorbs).
  solver->step();
  rt.drain_delayed();
  solver->step();
  auto x = solver->gather_x();
  std::vector<value_t> r(x.size());
  p.a.residual(p.b, x, r);
  // After two drain+step rounds, the windows are nearly caught up; allow
  // residual slack for still-in-flight messages from the last step.
  EXPECT_NEAR(solver->global_residual_norm(), sparse::norm2(r),
              0.15 * sparse::norm2(r) + 1e-9);
}

TEST(DelayedDelivery, DelayNeverExceedsConfiguredBound) {
  // Every message lands at most max_delay_epochs fences after the fence
  // that would have delivered it — the staleness bound the heartbeat
  // hardening relies on.
  simmpi::DeliveryModel dm;
  dm.delay_probability = 1.0;
  dm.max_delay_epochs = 3;
  simmpi::Runtime rt(2, simmpi::MachineModel{}, dm);
  std::vector<int> send_fence(10), arrive_fence(10, -1);
  for (int f = 0; f < 10 + dm.max_delay_epochs; ++f) {
    if (f < 10) {
      rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{double(f)});
      send_fence[static_cast<std::size_t>(f)] = f;
    }
    rt.fence();
    for (const auto& m : rt.window(1)) {
      arrive_fence[static_cast<std::size_t>(m.payload[0])] = f;
    }
    rt.consume(1);
  }
  for (int k = 0; k < 10; ++k) {
    ASSERT_GE(arrive_fence[static_cast<std::size_t>(k)], 0) << "msg " << k;
    const int delay = arrive_fence[static_cast<std::size_t>(k)] -
                      send_fence[static_cast<std::size_t>(k)];
    EXPECT_GE(delay, 0);
    EXPECT_LE(delay, dm.max_delay_epochs);
  }
}

TEST(DelayedDelivery, SameSourceCanBeObservedOutOfOrder) {
  // Two same-epoch puts from one source: if the first draws a delay and
  // the second does not, the receiver observes them out of order across
  // fences — the staleness regime the DS livelock test pins down. Scan
  // seeds until the reordering shows up (deterministically).
  bool reordered = false;
  for (std::uint64_t seed = 0; seed < 200 && !reordered; ++seed) {
    simmpi::DeliveryModel dm;
    dm.delay_probability = 0.5;
    dm.max_delay_epochs = 2;
    dm.seed = seed;
    simmpi::Runtime rt(2, simmpi::MachineModel{}, dm);
    rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{0.0});
    rt.put(0, 1, simmpi::MsgTag::kSolve, std::vector<double>{1.0});
    rt.fence();
    const auto win = rt.window(1);
    if (win.size() == 1 && win[0].payload[0] == 1.0) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(DelayedDelivery, CoalescedFramesComposeWithDelays) {
  // A delayed or reordered frame is still a frame: the magic-NaN marker
  // and the validated entry walk mean late delivery can never make the
  // decoder misparse — every logical record eventually arrives intact.
  simmpi::DeliveryModel dm;
  dm.delay_probability = 0.5;
  dm.max_delay_epochs = 2;
  dm.seed = 7;
  simmpi::Runtime rt(2, simmpi::MachineModel{}, dm);
  wire::CommPlan plan({{{1, 2, 2}}, {{0, 2, 2}}});
  wire::ChannelSet ch(plan, 0);
  ch.set_coalescing(true);
  simmpi::RankContext ctx(rt, 0);

  std::size_t records_seen = 0;
  double norm_sum = 0.0;
  const auto absorb = [&] {
    for (const auto& m : rt.window(1)) {
      wire::for_each_record(wire::Family::kEstimate, m.payload, 2,
                            [&](const wire::Record& rec) {
                              ++records_seen;
                              norm_sum += rec.norm2;
                            });
    }
    rt.consume(1);
  };

  double sent_norm_sum = 0.0;
  for (int e = 0; e < 6; ++e) {
    for (int i = 0; i < 2; ++i) {
      const double n2 = 1.0 + 2.0 * e + i;
      sent_norm_sum += n2;
      auto rec = ch.open(ctx, 0, wire::RecordType::kSolveUpdate, n2, 0.5);
      rec.dx[0] = rec.dx[1] = rec.rb[0] = rec.rb[1] = 0.0;
    }
    ch.flush(ctx);
    rt.fence();
    absorb();
  }
  rt.drain_delayed();
  absorb();
  EXPECT_EQ(records_seen, 12u);
  EXPECT_EQ(norm_sum, sent_norm_sum);
  // Frames count once physically, per-record logically.
  EXPECT_EQ(rt.stats().total_messages(), 6u);
  EXPECT_EQ(rt.stats().logical_messages(), 12u);
}

}  // namespace
}  // namespace dsouth
