/// Tests for the elastic-ranks subsystem (src/elastic, docs/resilience.md
/// "Permanent failure and recovery"): permanent-kill schedule semantics,
/// dead-rank silencing at the runtime fence, the versioned checkpoint
/// codec (round-trip determinism, corruption rejection), byte-identical
/// restore-continuation across backends and composed with coalescing /
/// async delivery / node topologies, fault-free byte-identity of
/// run_elastic against run_distributed (series AND trace bytes), full
/// kill-and-repartition recovery for all four solvers, stop-rule parity
/// with run_distributed (watchdog stall and growth, divergence_abort), and
/// the Runtime::reset_stats / CommStats save-load audit.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/run_trace.hpp"
#include "dist/driver.hpp"
#include "dist/harness.hpp"
#include "elastic/checkpoint.hpp"
#include "elastic/elastic.hpp"
#include "faults/fault_plan.hpp"
#include "graph/partition.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "trace/export.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth {
namespace {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

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

// ---------------------------------------------------------------------------
// Kill-schedule semantics (faults::RankKill / RandomKills).

TEST(KillSchedule, ExplicitKillsAndEarliestWins) {
  faults::FaultPlan plan;
  EXPECT_FALSE(plan.any());
  plan.kills.push_back({2, 7});
  EXPECT_TRUE(plan.any());  // kills alone make the plan nonzero
  plan.kills.push_back({2, 4});  // earliest entry wins
  plan.kills.push_back({0, 9});
  faults::FaultSchedule sched(plan, 4);
  EXPECT_TRUE(sched.any_kills());
  EXPECT_EQ(sched.kill_epoch(2), 4u);
  EXPECT_EQ(sched.kill_epoch(0), 9u);
  EXPECT_EQ(sched.kill_epoch(1), faults::FaultSchedule::kNeverKilled);
  EXPECT_EQ(sched.kill_epoch(3), faults::FaultSchedule::kNeverKilled);
  // dead() is monotone in the epoch counter.
  EXPECT_FALSE(sched.dead(2, 3));
  EXPECT_TRUE(sched.dead(2, 4));
  EXPECT_TRUE(sched.dead(2, 1000));
  EXPECT_FALSE(sched.dead(1, 1000));
}

TEST(KillSchedule, RandomKillDrawsAreSeededAndDeterministic) {
  faults::FaultPlan plan;
  // Draws are per-(rank, epoch): survival chance is (1-p)^max, so keep p
  // small enough that both fates occur across 32 ranks.
  plan.random_kills.probability = 0.05;
  plan.random_kills.max_kill_epoch = 16;
  EXPECT_TRUE(plan.any());
  faults::FaultSchedule s1(plan, 32);
  faults::FaultSchedule s2(plan, 32);
  bool someone_died = false, someone_survived = false;
  for (int r = 0; r < 32; ++r) {
    EXPECT_EQ(s1.kill_epoch(r), s2.kill_epoch(r));  // same seed, same fate
    if (s1.kill_epoch(r) != faults::FaultSchedule::kNeverKilled) {
      someone_died = true;
      EXPECT_LT(s1.kill_epoch(r), 16u);  // draws cover [0, max) only
    } else {
      someone_survived = true;
    }
  }
  EXPECT_TRUE(someone_died);
  EXPECT_TRUE(someone_survived);
  plan.seed ^= 1;
  faults::FaultSchedule s3(plan, 32);
  bool seed_changed_something = false;
  for (int r = 0; r < 32; ++r) {
    if (s1.kill_epoch(r) != s3.kill_epoch(r)) seed_changed_something = true;
  }
  EXPECT_TRUE(seed_changed_something);

  // Certain death: probability 1 kills everyone at the first covered epoch.
  plan.random_kills.probability = 1.0;
  faults::FaultSchedule s4(plan, 8);
  for (int r = 0; r < 8; ++r) EXPECT_EQ(s4.kill_epoch(r), 0u);
}

TEST(KillSchedule, DeadRankTrafficIsSwallowed) {
  auto p = make_problem(12, 4, 11);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 12;
  opt.faults.kills.push_back({1, 3});
  auto r = dist::run_distributed(dist::DistMethod::kBlockJacobi, p.a, p.part,
                                 p.b, p.x0, opt);
  ASSERT_TRUE(r.fault_summary.has_value());
  // The dead rank's in-flight and incoming traffic is dropped at the fence.
  EXPECT_GT(r.fault_summary->msgs_dead_dropped, 0u);
  // Without recovery the lost subdomain stalls convergence vs a clean run.
  dist::DistRunOptions clean_opt;
  clean_opt.max_parallel_steps = 12;
  auto clean = dist::run_distributed(dist::DistMethod::kBlockJacobi, p.a,
                                     p.part, p.b, p.x0, clean_opt);
  EXPECT_GT(r.residual_norm.back(), clean.residual_norm.back());
}

// ---------------------------------------------------------------------------
// Checkpoint codec.

elastic::Checkpoint capture_checkpoint(dist::RunHarness& h, int method,
                                       index_t step) {
  elastic::Checkpoint c;
  c.num_ranks = h.runtime().num_ranks();
  c.method = method;
  c.flags = elastic::kFlagCoalescing;  // arbitrary nonzero flag stamp
  c.epoch = h.runtime().epochs_completed();
  c.step = step;
  c.runtime = h.runtime().capture_state();
  c.solver = h.solver().capture_state();
  return c;
}

TEST(CheckpointCodec, EncodeDecodeRoundTripIsByteStable) {
  auto p = make_problem(10, 4, 21);
  dist::DistRunOptions opt;
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kDistributedSouthwell, layout, p.b,
                     p.x0, opt);
  for (int k = 0; k < 3; ++k) h.solver().step();
  const auto c = capture_checkpoint(h, 3, 3);
  const auto bytes = elastic::encode(c);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.size() % 8, 0u);

  const auto d = elastic::decode(bytes);
  EXPECT_EQ(d.num_ranks, c.num_ranks);
  EXPECT_EQ(d.method, c.method);
  EXPECT_EQ(d.flags, c.flags);
  EXPECT_EQ(d.epoch, c.epoch);
  EXPECT_EQ(d.step, c.step);
  EXPECT_EQ(d.runtime.epochs, c.runtime.epochs);
  EXPECT_EQ(d.solver.x, c.solver.x);  // bitwise: doubles travel as u64
  EXPECT_EQ(d.solver.r, c.solver.r);
  EXPECT_EQ(d.solver.ghost_x, c.solver.ghost_x);
  // Re-encoding the decoded checkpoint reproduces the buffer byte for byte.
  EXPECT_EQ(elastic::encode(d), bytes);
}

TEST(CheckpointCodec, RejectsCorruptionTruncationAndBadHeaders) {
  auto p = make_problem(8, 2, 22);
  dist::DistRunOptions opt;
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kBlockJacobi, layout, p.b, p.x0, opt);
  h.solver().step();
  const auto bytes = elastic::encode(capture_checkpoint(h, 0, 1));

  // Payload bit flip -> checksum mismatch.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 0x40;
  EXPECT_THROW(elastic::decode(corrupt), util::CheckError);

  // Bad magic.
  auto magic = bytes;
  magic[0] ^= 0xff;
  EXPECT_THROW(elastic::decode(magic), util::CheckError);

  // Unsupported version.
  auto version = bytes;
  version[8] ^= 0xff;
  EXPECT_THROW(elastic::decode(version), util::CheckError);

  // Truncation: drop the tail (word-aligned and not).
  auto truncated = bytes;
  truncated.resize(truncated.size() - 8);
  EXPECT_THROW(elastic::decode(truncated), util::CheckError);
  auto ragged = bytes;
  ragged.resize(ragged.size() - 3);
  EXPECT_THROW(elastic::decode(ragged), util::CheckError);

  // Trailing garbage past the declared payload length.
  auto trailing = bytes;
  trailing.insert(trailing.end(), 8, std::uint8_t{0});
  EXPECT_THROW(elastic::decode(trailing), util::CheckError);
}

// ---------------------------------------------------------------------------
// Restore-continuation determinism: snapshot at step s, restore into a
// fresh stack over the SAME layout, run to completion — byte-identical to
// the uninterrupted run, under every delivery/wire composition.

/// Returns how many messages were in flight in the checkpoint.
std::size_t expect_restore_continuation_identical(
    const dist::DistRunOptions& opt, simmpi::BackendKind backend,
    dist::DistMethod method = dist::DistMethod::kDistributedSouthwell) {
  auto p = make_problem(12, 4, 31);
  auto run_opt = opt;
  run_opt.backend = backend;
  dist::DistLayout layout(p.a, p.part);

  // Uninterrupted reference, with a checkpoint captured mid-flight
  // (capture is non-destructive — the run continues unperturbed).
  dist::RunHarness ref(method, layout, p.b, p.x0, run_opt);
  std::vector<std::uint8_t> bytes;
  for (int k = 0; k < 10; ++k) {
    if (k == 4) bytes = elastic::encode(capture_checkpoint(ref, 3, 4));
    ref.solver().step();
  }
  const auto x_ref = ref.solver().gather_x();
  std::vector<std::uint64_t> stats_ref;
  ref.runtime().stats().save(stats_ref);

  // Fresh stack, restore the decoded checkpoint, run the remaining steps.
  const auto c = elastic::decode(bytes);
  dist::RunHarness resumed(method, layout, p.b, p.x0, run_opt);
  resumed.runtime().restore_state(c.runtime);
  resumed.solver().restore_state(c.solver);
  for (int k = 4; k < 10; ++k) resumed.solver().step();
  const auto x_resumed = resumed.solver().gather_x();
  std::vector<std::uint64_t> stats_resumed;
  resumed.runtime().stats().save(stats_resumed);

  EXPECT_EQ(x_resumed, x_ref);  // bitwise (vector<double> operator==)
  EXPECT_EQ(stats_resumed, stats_ref);
  EXPECT_EQ(resumed.runtime().epochs_completed(),
            ref.runtime().epochs_completed());
  EXPECT_EQ(resumed.runtime().model_time_seconds(),
            ref.runtime().model_time_seconds());
  return c.runtime.deferred.size();
}

TEST(RestoreContinuation, PlainBulkSynchronous) {
  dist::DistRunOptions opt;
  expect_restore_continuation_identical(opt, simmpi::BackendKind::kSequential);
  expect_restore_continuation_identical(opt, simmpi::BackendKind::kThreadPool);
}

TEST(RestoreContinuation, WithCoalescing) {
  dist::DistRunOptions opt;
  opt.coalesce_messages = true;
  expect_restore_continuation_identical(opt, simmpi::BackendKind::kSequential);
  expect_restore_continuation_identical(opt, simmpi::BackendKind::kThreadPool);
}

TEST(RestoreContinuation, WithAsyncDelivery) {
  dist::DistRunOptions opt;
  opt.async = true;  // in-flight deferred messages ride the checkpoint
  expect_restore_continuation_identical(opt, simmpi::BackendKind::kSequential);
  expect_restore_continuation_identical(opt, simmpi::BackendKind::kThreadPool);
}

TEST(RestoreContinuation, WithDelayedDelivery) {
  // Delivery delays are keyed draws: the checkpoint carries the delayed
  // messages themselves and no draw state, and the resumed run draws
  // exactly the delays the uninterrupted one did. Late solve updates are
  // absorbed after a step's closing fence, so the checkpoint must also
  // carry the flops those absorbs charge to the next epoch. Block Jacobi
  // sends every step, so its checkpoint has messages in flight; DS under
  // delays stalls (DelayRobustness) but must resume identically too.
  dist::DistRunOptions opt;
  opt.delivery.delay_probability = 0.5;
  for (const auto backend :
       {simmpi::BackendKind::kSequential, simmpi::BackendKind::kThreadPool}) {
    EXPECT_GT(expect_restore_continuation_identical(
                  opt, backend, dist::DistMethod::kBlockJacobi),
              0u);
    expect_restore_continuation_identical(opt, backend);
  }
}

TEST(RestoreContinuation, WithNodeTopologyRouting) {
  dist::DistRunOptions opt;
  opt.ranks_per_node = 2;
  expect_restore_continuation_identical(opt, simmpi::BackendKind::kSequential);
  expect_restore_continuation_identical(opt, simmpi::BackendKind::kThreadPool);
}

// ---------------------------------------------------------------------------
// Fault-free byte-identity: run_elastic with recovery attached but no
// kills is run_distributed — series for series, trace byte for byte.

std::string jsonl_bytes(const std::shared_ptr<const trace::TraceLog>& log,
                        const std::string& label) {
  std::ostringstream os;
  trace::TraceExportOptions topt;
  topt.run_label = label;
  trace::write_jsonl(os, *log, topt);
  return os.str();
}

TEST(ElasticDriver, FaultFreeRunIsByteIdenticalToRunDistributed) {
  auto p = make_problem(12, 4, 41);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 12;
  opt.trace.enabled = true;
  auto plain = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                     p.a, p.part, p.b, p.x0, opt);
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 3;
  auto er = elastic::run_elastic(dist::DistMethod::kDistributedSouthwell,
                                 p.a, p.part, p.b, p.x0, opt, rec);
  // Checkpoints were taken — the observer ran — yet nothing changed.
  EXPECT_GT(er.checkpoints_taken, 1);
  EXPECT_GT(er.last_checkpoint_bytes, 0u);
  EXPECT_TRUE(er.recoveries.empty());
  EXPECT_EQ(er.run.final_x, plain.final_x);
  EXPECT_EQ(er.run.residual_norm, plain.residual_norm);
  EXPECT_EQ(er.run.model_time, plain.model_time);
  EXPECT_EQ(er.run.comm_cost, plain.comm_cost);
  EXPECT_EQ(er.run.comm_totals.msgs, plain.comm_totals.msgs);
  EXPECT_EQ(er.run.comm_totals.bytes, plain.comm_totals.bytes);
  ASSERT_NE(er.run.trace_log, nullptr);
  ASSERT_NE(plain.trace_log, nullptr);
  // No kills configured -> no kElastic events -> identical trace bytes.
  EXPECT_EQ(jsonl_bytes(er.run.trace_log, "t"),
            jsonl_bytes(plain.trace_log, "t"));

  // Recovery disabled degenerates to run_distributed by construction.
  elastic::RecoveryOptions off;
  off.enabled = false;
  auto er_off = elastic::run_elastic(dist::DistMethod::kDistributedSouthwell,
                                     p.a, p.part, p.b, p.x0, opt, off);
  EXPECT_EQ(er_off.checkpoints_taken, 0);
  EXPECT_EQ(er_off.run.final_x, plain.final_x);
}

// ---------------------------------------------------------------------------
// Stop-rule parity: run_elastic judges each step with run_distributed's
// stop rules, so on a fault-free plan every rule stops both drivers at the
// same step with the same report — checkpoints in between change nothing.

TEST(ElasticDriver, StopRulesMatchRunDistributed) {
  // Small-block Jacobi on an elasticity proxy diverges, so every rule
  // below fires well inside the step budget.
  auto proxy = sparse::make_proxy("msdoorp", 0.05);
  std::vector<value_t> b(static_cast<std::size_t>(proxy.a.rows()), 0.0);
  std::vector<value_t> x0(b.size());
  util::Rng rng(6);
  rng.fill_uniform(x0, -1.0, 1.0);
  sparse::normalize_initial_residual(proxy.a, b, x0);
  const auto part = graph::partition_recursive_bisection(
      graph::Graph::from_matrix_structure(proxy.a), proxy.a.rows() / 4);

  struct Case {
    const char* name;
    dist::DistRunOptions opt;
    const char* reason;  ///< expected watchdog reason ("" = not fired)
  };
  dist::DistRunOptions base;
  base.max_parallel_steps = 60;
  std::vector<Case> cases;
  {
    auto stall = base;
    stall.watchdog.enabled = true;
    stall.watchdog.growth_factor = 1e300;
    stall.watchdog.stall_steps = 3;
    cases.push_back({"stall", stall, "residual stalled"});
    auto growth = base;
    growth.watchdog.enabled = true;
    growth.watchdog.growth_factor = 4.0;
    cases.push_back(
        {"growth", growth, "residual exceeded growth_factor x initial"});
    auto abort = base;
    abort.divergence_abort = 4.0;
    cases.push_back({"divergence_abort", abort, ""});
  }
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 2;
  for (const auto& c : cases) {
    const auto plain = dist::run_distributed(dist::DistMethod::kBlockJacobi,
                                             proxy.a, part, b, x0, c.opt);
    const auto er = elastic::run_elastic(dist::DistMethod::kBlockJacobi,
                                         proxy.a, part, b, x0, c.opt, rec);
    EXPECT_LT(plain.steps_taken(), 60u) << c.name;
    EXPECT_EQ(plain.watchdog.reason, c.reason) << c.name;
    EXPECT_TRUE(er.recoveries.empty()) << c.name;
    EXPECT_EQ(er.run.residual_norm, plain.residual_norm) << c.name;
    EXPECT_EQ(er.run.steps_taken(), plain.steps_taken()) << c.name;
    EXPECT_EQ(er.run.watchdog.fired, plain.watchdog.fired) << c.name;
    EXPECT_EQ(er.run.watchdog.reason, plain.watchdog.reason) << c.name;
    EXPECT_EQ(er.run.watchdog.step, plain.watchdog.step) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Full recovery: kill 2 of 16 mid-solve, every solver converges.

TEST(ElasticDriver, AllFourSolversRecoverFromTwoDeaths) {
  auto p = make_problem(24, 16, 51);
  const double r0 = 1.0;  // normalized initial residual
  const dist::DistMethod methods[4] = {
      dist::DistMethod::kBlockJacobi, dist::DistMethod::kMulticolorBlockGs,
      dist::DistMethod::kParallelSouthwell,
      dist::DistMethod::kDistributedSouthwell};
  for (auto m : methods) {
    dist::DistRunOptions opt;
    opt.max_parallel_steps = 40;
    opt.faults.kills.push_back({3, 6});
    opt.faults.kills.push_back({11, 14});
    elastic::RecoveryOptions rec;
    rec.checkpoint_every = 4;
    auto er = elastic::run_elastic(m, p.a, p.part, p.b, p.x0, opt, rec);
    ASSERT_EQ(er.recoveries.size(), 2u) << er.run.method;
    EXPECT_EQ(er.recoveries[0].dead_rank, 3);
    EXPECT_EQ(er.recoveries[1].dead_rank, 11);
    for (const auto& ev : er.recoveries) {
      EXPECT_GT(ev.rows_moved, 0) << er.run.method;
      EXPECT_GT(ev.checkpoint_bytes, 0u);
      EXPECT_LE(ev.resumed_step, ev.detected_step);
    }
    // The dead parts end empty; every row lives on a survivor.
    const auto sizes = er.final_partition.part_sizes();
    EXPECT_EQ(sizes[3], 0) << er.run.method;
    EXPECT_EQ(sizes[11], 0) << er.run.method;
    index_t total = 0;
    for (index_t s : sizes) total += s;
    EXPECT_EQ(total, p.a.rows());
    // Series stay well-formed through the rollbacks.
    ASSERT_EQ(er.run.residual_norm.size(), er.run.steps_taken() + 1);
    ASSERT_EQ(er.run.model_time.size(), er.run.steps_taken() + 1);
    // And the run still converges to the Table-2 tolerance.
    EXPECT_LE(er.run.residual_norm.back(), 0.1 * r0) << er.run.method;
  }
}

TEST(ElasticDriver, RecoveryIsBitIdenticalAcrossBackends) {
  auto p = make_problem(16, 8, 61);
  auto run_once = [&](simmpi::BackendKind backend) {
    dist::DistRunOptions opt;
    opt.max_parallel_steps = 24;
    opt.backend = backend;
    opt.faults.kills.push_back({2, 5});
    elastic::RecoveryOptions rec;
    rec.checkpoint_every = 4;
    return elastic::run_elastic(dist::DistMethod::kParallelSouthwell, p.a,
                                p.part, p.b, p.x0, opt, rec);
  };
  auto seq = run_once(simmpi::BackendKind::kSequential);
  auto thr = run_once(simmpi::BackendKind::kThreadPool);
  ASSERT_EQ(seq.recoveries.size(), 1u);
  ASSERT_EQ(thr.recoveries.size(), 1u);
  EXPECT_EQ(seq.recoveries[0].resumed_step, thr.recoveries[0].resumed_step);
  EXPECT_EQ(seq.last_checkpoint_bytes, thr.last_checkpoint_bytes);
  EXPECT_EQ(seq.run.final_x, thr.run.final_x);  // bitwise
  EXPECT_EQ(seq.run.residual_norm, thr.run.residual_norm);
  EXPECT_EQ(seq.final_partition.part, thr.final_partition.part);
}

// ---------------------------------------------------------------------------
// Trace + analyzer integration: kElastic events round-trip through JSONL
// and the ElasticReport tallies the recovery shape.

TEST(ElasticDriver, TraceEventsRoundTripThroughAnalyzer) {
  auto p = make_problem(16, 8, 71);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 20;
  opt.trace.enabled = true;
  opt.faults.kills.push_back({5, 4});
  elastic::RecoveryOptions rec;
  rec.checkpoint_every = 4;
  auto er = elastic::run_elastic(dist::DistMethod::kBlockJacobi, p.a, p.part,
                                 p.b, p.x0, opt, rec);
  ASSERT_EQ(er.recoveries.size(), 1u);
  ASSERT_NE(er.run.trace_log, nullptr);
  const std::string text = jsonl_bytes(er.run.trace_log, "elastic");
  auto runs = analysis::parse_jsonl(text);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].version, 6);  // elastic events bump the stream version

  const auto rep = analysis::analyze_elastic(runs[0]);
  EXPECT_TRUE(rep.any());
  EXPECT_TRUE(rep.restores_ordered);
  EXPECT_EQ(rep.by_action[analysis::ElasticReport::kKill], 1u);
  EXPECT_EQ(rep.by_action[analysis::ElasticReport::kRestore], 1u);
  EXPECT_EQ(rep.by_action[analysis::ElasticReport::kRepartition], 1u);
  ASSERT_EQ(rep.dead_ranks.size(), 1u);
  EXPECT_EQ(rep.dead_ranks[0], 5);
  EXPECT_GT(rep.checkpoint_bytes_min, 0u);
  EXPECT_EQ(rep.checkpoint_bytes_last, er.last_checkpoint_bytes);
  // The final generation's tracer only saw the post-recovery checkpoints,
  // so the event tally counts those, not every checkpoint ever taken.
  EXPECT_LE(rep.by_action[analysis::ElasticReport::kCheckpoint],
            static_cast<std::uint64_t>(er.checkpoints_taken));
  EXPECT_EQ(rep.rows_moved,
            static_cast<std::uint64_t>(er.recoveries[0].rows_moved));
}

// ---------------------------------------------------------------------------
// Runtime::reset_stats / CommStats audit (the save() stream makes "every
// counter" checkable without naming each field).

TEST(CommStatsAudit, ResetZeroesEveryCounterSincePr5) {
  auto p = make_problem(12, 4, 81);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 8;
  opt.async = true;        // async_* counters (force-enables resilience,
                           // which is why coalescing is left off here)
  opt.ranks_per_node = 2;  // node_* counters
  opt.faults.defaults.drop_probability = 0.2;  // fault counters
  opt.faults.kills.push_back({1, 3});          // msgs_dead_dropped
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kDistributedSouthwell, layout, p.b,
                     p.x0, opt);
  for (int k = 0; k < 8; ++k) h.solver().step();

  std::vector<std::uint64_t> before;
  h.runtime().stats().save(before);
  ASSERT_EQ(before.size(), simmpi::CommStats::saved_words(0));
  // The run exercised enough subsystems that many words moved.
  int nonzero = 0;
  for (std::size_t i = 2; i < before.size(); ++i) {
    if (before[i] != 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 5);

  h.runtime().reset_stats();
  std::vector<std::uint64_t> after;
  h.runtime().stats().save(after);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(after[0], before[0]);  // shape: rank count survives reset
  EXPECT_EQ(after[1], before[1]);  // shape: tenant count survives reset
  for (std::size_t i = 2; i < after.size(); ++i) {
    EXPECT_EQ(after[i], 0u) << "counter word " << i << " not cleared";
  }
}

TEST(CommStatsAudit, SaveLoadRoundTripsAndValidates) {
  auto p = make_problem(10, 4, 91);
  dist::DistRunOptions opt;
  opt.max_parallel_steps = 5;
  opt.faults.defaults.duplicate_probability = 0.1;
  dist::DistLayout layout(p.a, p.part);
  dist::RunHarness h(dist::DistMethod::kBlockJacobi, layout, p.b, p.x0, opt);
  for (int k = 0; k < 5; ++k) h.solver().step();

  std::vector<std::uint64_t> saved;
  h.runtime().stats().save(saved);
  simmpi::CommStats fresh(4);
  fresh.load(saved);
  std::vector<std::uint64_t> resaved;
  fresh.save(resaved);
  EXPECT_EQ(resaved, saved);

  // Rank-count mismatch and truncated streams are rejected.
  simmpi::CommStats wrong_ranks(5);
  EXPECT_THROW(wrong_ranks.load(saved), util::CheckError);
  auto truncated = saved;
  truncated.pop_back();
  simmpi::CommStats short_stats(4);
  EXPECT_THROW(short_stats.load(truncated), util::CheckError);
}

}  // namespace
}  // namespace dsouth
