#include "dist/driver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "dist/batch.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/rng.hpp"

namespace dsouth::dist {
namespace {

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(index_t nx, index_t k, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, nx)).a;
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  auto g = graph::Graph::from_matrix_structure(p.a);
  p.part = graph::partition_recursive_bisection(g, k);
  return p;
}

TEST(Driver, SeriesAreWellFormed) {
  auto p = make_problem(8, 4, 1);
  DistRunOptions opt;
  opt.max_parallel_steps = 10;
  auto r = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, opt);
  EXPECT_EQ(r.method, "DistributedSouthwell");
  EXPECT_EQ(r.num_ranks, 4);
  EXPECT_EQ(r.n, 64);
  EXPECT_EQ(r.steps_taken(), 10u);
  ASSERT_EQ(r.residual_norm.size(), 11u);
  ASSERT_EQ(r.model_time.size(), 11u);
  ASSERT_EQ(r.comm_cost.size(), 11u);
  ASSERT_EQ(r.relaxations.size(), 11u);
  EXPECT_NEAR(r.residual_norm[0], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.model_time[0], 0.0);
  // Cumulative series are non-decreasing.
  for (std::size_t k = 1; k < r.model_time.size(); ++k) {
    EXPECT_GE(r.model_time[k], r.model_time[k - 1]);
    EXPECT_GE(r.comm_cost[k], r.comm_cost[k - 1]);
    EXPECT_GE(r.relaxations[k], r.relaxations[k - 1]);
  }
  // Tag costs decompose the total.
  EXPECT_NEAR(r.comm_cost.back(), r.solve_comm.back() + r.res_comm.back(),
              1e-12);
}

TEST(Driver, StopAtResidualCutsRunShort) {
  auto p = make_problem(8, 4, 2);
  DistRunOptions opt;
  opt.max_parallel_steps = 10000;
  opt.stop_at_residual = 0.1;
  auto r = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b, p.x0,
                           opt);
  EXPECT_LE(r.residual_norm.back(), 0.1);
  EXPECT_LT(r.steps_taken(), 10000u);
}

TEST(Driver, AtTargetInterpolatesBetweenSteps) {
  auto p = make_problem(10, 5, 3);
  DistRunOptions opt;
  opt.max_parallel_steps = 300;
  auto r = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b, p.x0,
                           opt);
  auto at = r.at_target(0.1);
  ASSERT_TRUE(at.has_value());
  EXPECT_GT(at->steps, 0.0);
  EXPECT_LE(at->steps, static_cast<double>(r.steps_taken()));
  EXPECT_GT(at->model_time, 0.0);
  EXPECT_LE(at->model_time, r.model_time.back());
  EXPECT_GT(at->comm_cost, 0.0);
  EXPECT_GT(at->relaxations_per_n, 0.0);
  EXPECT_GT(at->active_fraction, 0.0);
  EXPECT_LE(at->active_fraction, 1.0);
  // BJ relaxes everything every step: relaxations/n == steps, active = 1.
  EXPECT_NEAR(at->relaxations_per_n, at->steps, 1e-9);
  EXPECT_NEAR(at->active_fraction, 1.0, 1e-12);
}

TEST(Driver, AtTargetReturnsNulloptWhenUnreached) {
  auto p = make_problem(8, 4, 4);
  DistRunOptions opt;
  opt.max_parallel_steps = 1;
  auto r = run_distributed(DistMethod::kDistributedSouthwell, p.a, p.part,
                           p.b, p.x0, opt);
  EXPECT_FALSE(r.at_target(1e-9).has_value());
}

TEST(Driver, DivergenceAbortStopsEarly) {
  // Force divergence artificially with an indefinite iteration: use the
  // elasticity-free route — BJ on Poisson converges, so instead abort on a
  // tiny threshold that any step exceeds... use threshold below initial
  // residual to trigger at step 1.
  auto p = make_problem(8, 4, 5);
  DistRunOptions opt;
  opt.max_parallel_steps = 100;
  opt.divergence_abort = 1e-6;  // any recorded norm >= this aborts
  auto r = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b, p.x0,
                           opt);
  EXPECT_EQ(r.steps_taken(), 1u);
}

TEST(Driver, MeanHelpers) {
  auto p = make_problem(8, 4, 6);
  DistRunOptions opt;
  opt.max_parallel_steps = 5;
  auto r = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b, p.x0,
                           opt);
  EXPECT_NEAR(r.mean_step_time() * 5.0, r.model_time.back(), 1e-15);
  EXPECT_NEAR(r.mean_step_comm() * 5.0, r.comm_cost.back(), 1e-15);
  EXPECT_DOUBLE_EQ(r.mean_active_fraction(), 1.0);
}

TEST(Driver, MethodNames) {
  EXPECT_STREQ(method_name(DistMethod::kBlockJacobi), "BlockJacobi");
  EXPECT_STREQ(method_abbrev(DistMethod::kBlockJacobi), "BJ");
  EXPECT_STREQ(method_abbrev(DistMethod::kParallelSouthwell), "PS");
  EXPECT_STREQ(method_abbrev(DistMethod::kDistributedSouthwell), "DS");
}

TEST(Driver, MachineModelScalesModelTime) {
  auto p = make_problem(8, 4, 7);
  DistRunOptions slow;
  slow.max_parallel_steps = 5;
  slow.machine.alpha = 1.0;
  DistRunOptions fast = slow;
  fast.machine.alpha = 1e-9;
  auto r_slow = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b,
                                p.x0, slow);
  auto r_fast = run_distributed(DistMethod::kBlockJacobi, p.a, p.part, p.b,
                                p.x0, fast);
  EXPECT_GT(r_slow.model_time.back(), r_fast.model_time.back());
}

// ---------------------------------------------------------------------------
// Cross-build iterate pin. Every other determinism test compares two runs of
// the SAME build (backends, modes, batch vs solo); this one compares against
// constants recorded from an earlier build, so a refactor of the shared
// solver skeleton that moves a single bit of any solver's floating-point
// schedule fails here. Each case runs one solver for a fixed number of steps
// on one fixed problem and folds the final iterate's bits, the modeled time's
// bits and the CommStats totals into the pinned digests. A change that is
// MEANT to move iterates re-records the table (the failure message prints the
// new row) and says why in its change log.
// ---------------------------------------------------------------------------

/// kBatch4Faults runs the batch under the same fault plan as
/// kResilientFaults, so the batched demux's frame-rejection path is pinned
/// too.
enum class PinMode {
  kPlain,
  kCoalesced,
  kResilientFaults,
  kAsync,
  kBatch4,
  kBatch4Faults,
};

const char* pin_mode_name(PinMode m) {
  switch (m) {
    case PinMode::kPlain: return "plain";
    case PinMode::kCoalesced: return "coalesced";
    case PinMode::kResilientFaults: return "resilient_faults";
    case PinMode::kAsync: return "async";
    case PinMode::kBatch4: return "batch4";
    case PinMode::kBatch4Faults: return "batch4_faults";
  }
  return "?";
}

/// FNV-1a over 64-bit words.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  void add(std::span<const double> xs) {
    for (double x : xs) add(std::bit_cast<std::uint64_t>(x));
  }
};

struct PinDigest {
  std::uint64_t x_hash = 0;      ///< final iterate bits (all tenants)
  std::uint64_t time_bits = 0;   ///< modeled seconds, bit pattern
  std::uint64_t msgs = 0;        ///< physical messages
  std::uint64_t bytes = 0;       ///< modeled bytes
  /// Every CommTotals field (and, batched, the rejected-frame count).
  std::uint64_t comm_hash = 0;
};

std::uint64_t comm_digest(const DistRunResult::CommTotals& c) {
  Fnv64 f;
  for (std::uint64_t v :
       {c.msgs, c.bytes, c.msgs_solve, c.msgs_residual, c.msgs_other,
        c.msgs_logical, c.msgs_logical_solve, c.msgs_logical_residual}) {
    f.add(v);
  }
  return f.h;
}

PinDigest run_pin_case(DistMethod method, PinMode mode) {
  const auto p = make_problem(10, 6, 23);
  DistLayout layout(p.a, p.part);
  DistRunOptions opt;
  opt.max_parallel_steps = 14;
  switch (mode) {
    case PinMode::kPlain:
    case PinMode::kBatch4:
      break;
    case PinMode::kCoalesced:
      opt.coalesce_messages = true;
      break;
    case PinMode::kResilientFaults:
    case PinMode::kBatch4Faults:
      opt.faults.seed = 0x51CEULL;
      opt.faults.defaults.drop_probability = 0.1;
      opt.faults.defaults.duplicate_probability = 0.1;
      opt.faults.defaults.reorder_probability = 0.1;
      opt.faults.defaults.corrupt_probability = 0.05;
      opt.resilience.enabled = true;
      opt.resilience.refresh_period = 3;
      break;
    case PinMode::kAsync:
      opt.async = true;
      break;
  }
  PinDigest d;
  Fnv64 xh;
  if (mode == PinMode::kBatch4 || mode == PinMode::kBatch4Faults) {
    std::vector<std::vector<value_t>> bs, xs;
    std::vector<TenantSpec> specs;
    for (std::uint64_t t = 0; t < 4; ++t) {
      bs.emplace_back(p.b.size(), 0.0);
      xs.emplace_back(p.x0.size());
      util::Rng rng(100 + t);
      rng.fill_uniform(xs.back(), -1.0, 1.0);
      sparse::normalize_initial_residual(p.a, bs.back(), xs.back());
    }
    for (std::size_t t = 0; t < 4; ++t) specs.push_back({bs[t], xs[t], 0.0});
    const DistLayout* layouts[] = {&layout};
    const auto r = run_distributed_batch(method, layouts, specs, opt);
    for (const auto& t : r.tenants) xh.add(t.final_x);
    d.time_bits = std::bit_cast<std::uint64_t>(r.model_time);
    d.msgs = r.comm_totals.msgs;
    d.bytes = r.comm_totals.bytes;
    Fnv64 ch;
    ch.add(comm_digest(r.comm_totals));
    ch.add(r.frames_rejected);
    d.comm_hash = ch.h;
  } else {
    const auto r = run_distributed(method, layout, p.b, p.x0, opt);
    xh.add(r.final_x);
    d.time_bits = std::bit_cast<std::uint64_t>(r.model_time.back());
    d.msgs = r.comm_totals.msgs;
    d.bytes = r.comm_totals.bytes;
    d.comm_hash = comm_digest(r.comm_totals);
  }
  d.x_hash = xh.h;
  return d;
}

/// Recorded per (method, mode); rows follow DistMethod order, columns
/// PinMode order.
constexpr PinDigest kPinned[4][6] = {
    // BlockJacobi
    {{0x638f1fcaf0e88bf6ULL, 0x3f5054ce85d6e678ULL, 252, 10976,
      0x0a00366f6bf352b7ULL},
     {0x638f1fcaf0e88bf6ULL, 0x3f5054ce85d6e678ULL, 252, 10976,
      0x0a00366f6bf352b7ULL},
     {0x41bb0d0bddf89a23ULL, 0x3f505a9510b7a207ULL, 252, 21056,
      0x42bcd349256f1e4fULL},
     {0x9cc0517b14fca7aaULL, 0x3f505a690ab91f23ULL, 252, 21056,
      0x42bcd349256f1e4fULL},
     {0x20533d6a93933475ULL, 0x3f507daf35eba7e1ULL, 252, 53984,
      0xbc93821479333a9eULL},
     {0x67e15c819ee72c84ULL, 0x3f5094dcb53bfb47ULL, 252, 94304,
      0x1d6631e3f27474bbULL}},
    // ParallelSouthwell
    {{0x932c75024d29bb1dULL, 0x3f4ea678ca666561ULL, 205, 8048,
      0x66a57409966c5680ULL},
     {0x932c75024d29bb1dULL, 0x3f4ea678ca666561ULL, 205, 8048,
      0x66a57409966c5680ULL},
     {0x2c4d9b47dd1f5deaULL, 0x3f4ba096d58ba9dfULL, 184, 15808,
      0x98edd37a2e407d46ULL},
     {0xefa94b0392cd9c77ULL, 0x3f34cce5f18639e6ULL, 65, 5672,
      0xe790d78961dd02e7ULL},
     {0xfd8f56becd38c010ULL, 0x3f5bc9089193854cULL, 415, 54320,
      0x020890696628d244ULL},
     {0xe209e07f86d95c11ULL, 0x3f605816305cd8e2ULL, 483, 82304,
      0xa2edeee13637f81cULL}},
    // DistributedSouthwell
    {{0x926aa0a334934c5cULL, 0x3f42dd9656fd4b29ULL, 116, 9368,
      0x08cd81d9ef28fa61ULL},
     {0x926aa0a334934c5cULL, 0x3f42dd9656fd4b29ULL, 116, 9368,
      0x08cd81d9ef28fa61ULL},
     {0xafb7a7b180d82c19ULL, 0x3f4565735d80f5c5ULL, 135, 17000,
      0x012e975e4b0a2ef3ULL},
     {0xefa94b0392cd9c77ULL, 0x3f3367c74503f691ULL, 59, 7288,
      0x70cda85e46b04ce1ULL},
     {0x360d2f141ceb1c53ULL, 0x3f561273fe880e5fULL, 324, 56792,
      0x9909a6a0c1caca62ULL},
     {0xb87905b717f89356ULL, 0x3f58bd4539e57381ULL, 364, 81544,
      0xc87f3a4dbf3263daULL}},
    // MulticolorBlockGs
    {{0xb798d967cf9b2bc3ULL, 0x3f3a3bf84b2234acULL, 84, 3680,
      0xbbd9f7d2ca75438bULL},
     {0xb798d967cf9b2bc3ULL, 0x3f3a3bf84b2234acULL, 84, 3680,
      0xbbd9f7d2ca75438bULL},
     {0xc95988df73b05ccaULL, 0x3f3a4d401c1c37bbULL, 84, 7040,
      0xfe700e88c78d9dfcULL},
     {0x35b610620768d22bULL, 0x3f3a4d66c3b70214ULL, 84, 7040,
      0xfe700e88c78d9dfcULL},
     {0xe182b212182587ebULL, 0x3f3ac154fd101426ULL, 84, 18080,
      0xc3a6b61b5fb3d0f5ULL},
     {0x35315e4b41ab7fd2ULL, 0x3f3b069ae892eac4ULL, 84, 31520,
      0x6fbad2f7a7f3bac2ULL}},
};

class IteratePin
    : public ::testing::TestWithParam<std::tuple<DistMethod, PinMode>> {};

TEST_P(IteratePin, MatchesRecordedDigests) {
  const auto [method, mode] = GetParam();
  const PinDigest got = run_pin_case(method, mode);
  const PinDigest& want =
      kPinned[static_cast<int>(method)][static_cast<int>(mode)];
  char row[160];
  std::snprintf(row, sizeof row,
                "{0x%016llxULL, 0x%016llxULL, %llu, %llu, 0x%016llxULL}",
                static_cast<unsigned long long>(got.x_hash),
                static_cast<unsigned long long>(got.time_bits),
                static_cast<unsigned long long>(got.msgs),
                static_cast<unsigned long long>(got.bytes),
                static_cast<unsigned long long>(got.comm_hash));
  EXPECT_EQ(got.x_hash, want.x_hash) << "measured row: " << row;
  EXPECT_EQ(got.time_bits, want.time_bits) << "measured row: " << row;
  EXPECT_EQ(got.msgs, want.msgs) << "measured row: " << row;
  EXPECT_EQ(got.bytes, want.bytes) << "measured row: " << row;
  EXPECT_EQ(got.comm_hash, want.comm_hash) << "measured row: " << row;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsModes, IteratePin,
    ::testing::Combine(::testing::Values(DistMethod::kBlockJacobi,
                                         DistMethod::kParallelSouthwell,
                                         DistMethod::kDistributedSouthwell,
                                         DistMethod::kMulticolorBlockGs),
                       ::testing::Values(PinMode::kPlain, PinMode::kCoalesced,
                                         PinMode::kResilientFaults,
                                         PinMode::kAsync, PinMode::kBatch4,
                                         PinMode::kBatch4Faults)),
    [](const auto& info) {
      std::string name = method_name(std::get<0>(info.param));
      name += '_';
      name += pin_mode_name(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace dsouth::dist
