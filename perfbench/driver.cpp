// The benchmark's workload driver.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload's setup several times and its solves for at
// least --seconds, checks every result, and prints the end-to-end metrics.
// --trace 1 runs the workload once through hand-driven replicas of the
// library drivers with a ledger span around every library call, runs it
// once more untimed-by-ledger to compare against, and prints the per-layer
// metrics. The last stdout line is always the JSON result object.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "analysis/run_trace.hpp"
#include "bench.hpp"
#include "graph/graph.hpp"
#include "kernels/kernels.hpp"
#include "speedref.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/scaling.hpp"
#include "trace/export.hpp"

namespace perfbench {
namespace {

namespace dist = dsouth::dist;
namespace graph = dsouth::graph;
namespace sparse = dsouth::sparse;

constexpr DistMethod kBJ = DistMethod::kBlockJacobi;
constexpr DistMethod kPS = DistMethod::kParallelSouthwell;
constexpr DistMethod kDS = DistMethod::kDistributedSouthwell;
constexpr DistMethod kMC = DistMethod::kMulticolorBlockGs;

/// Relative tolerance between a recorded and a recomputed final residual.
constexpr double kResidualRelTol = 1e-9;

/// Distinct input sets per run (initial guesses, tenant mixes), each drawn
/// from the run's seed. A run solves every set at least once; the
/// deterministic metrics are per-set means, which halves the seed-to-seed
/// spread of near-threshold convergence (DS at P=8192 reaches 0.1 in ~26
/// steps for some initial guesses and stalls just above it for others).
constexpr int kInputSets = 2;

std::vector<WorkloadSpec> workload_table() {
  std::vector<WorkloadSpec> t;
  {
    WorkloadSpec w;
    w.name = "table2_p8192";
    w.why =
        "Paper Table 2 at P=8192: ~7 rows per rank, so per-rank dispatch, "
        "fence merge and 8192-way partitioning dominate; kernels do "
        "almost nothing.";
    w.matrix = "Fault_639p";
    w.ranks = 8192;
    w.methods = {kBJ, kPS, kDS, kMC};
    w.target = 0.1;
    w.max_steps = 50;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "deep_p32_t2";
    w.why =
        "~3100 rows per rank on a 2-thread pool: Gauss-Seidel sweeps and "
        "boundary updates dominate and the fence is ~1%; the only "
        "thread-pool workload.";
    w.matrix = "Hook_1498p";
    w.ranks = 32;
    w.methods = {kBJ, kPS, kDS, kMC};
    w.target = 1e-5;
    w.max_steps = 6000;
    w.threads = 2;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "serve_b16";
    w.why =
        "Closed loop of 128 batches of 16 tenants over rotating solvers: "
        "the only path through run_distributed_batch, tenant frames and "
        "demux.";
    w.driver = Driver::kBatch;
    w.matrix = "ldoorp";
    w.size_factor = 0.25;
    w.ranks = 16;
    w.methods = {kBJ, kPS, kDS, kMC};
    w.target = 0.1;
    w.max_steps = 500;
    w.batches = 128;
    w.tenants = 16;
    w.variants = 4;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "resilient_p256";
    w.why =
        "Rank kills, checkpoints, repartition, async delivery, message "
        "faults, node routing, trace export and analysis under "
        "run_elastic.";
    w.driver = Driver::kElastic;
    w.matrix = "ldoorp";
    w.ranks = 256;
    w.methods = {kBJ, kPS, kDS, kMC};
    w.target = 0.01;
    w.max_steps = 300;
    w.kills = true;
    w.async = true;
    w.message_faults = true;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "elastic_p256";
    w.why =
        "Rank kills, checkpoints, repartition, routed wire-v2 envelopes, "
        "trace export and analysis under run_elastic, bulk-synchronous "
        "and loss-free.";
    w.driver = Driver::kElastic;
    w.matrix = "ldoorp";
    w.ranks = 256;
    w.methods = {kBJ, kPS, kDS, kMC};
    w.target = 0.01;
    w.max_steps = 100;
    w.kills = true;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "checkpoint_p256";
    w.why =
        "Checkpoints every 8 steps, routed wire-v2 envelopes, tracing, JSONL "
        "export and analysis under run_elastic; no kills, so no recovery.";
    w.driver = Driver::kElastic;
    w.matrix = "ldoorp";
    w.ranks = 256;
    // Block Jacobi diverges on ldoorp at P=256; whether its residual dips
    // under 0.01 first depends on x0, which would swing the totals ~25%
    // from seed to seed.
    w.methods = {kPS, kDS, kMC};
    w.target = 0.01;
    w.max_steps = 150;
    t.push_back(w);
  }
  return t;
}

// --- Seeded inputs ----------------------------------------------------------

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0xD1B54A32D192ED03ULL);
  return splitmix(s);
}

Seeds derive_seeds(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x5EEDBE4C11A5E5ULL;
  Seeds out;
  out.x0 = splitmix(s);
  out.variants = splitmix(s);
  out.tenants = splitmix(s);
  out.faults = splitmix(s);
  out.latency = splitmix(s);
  return out;
}

/// Uniform(-1, 1) initial guess scaled so that ‖b − A x0‖₂ = 1.
std::vector<value_t> initial_guess(const CsrMatrix& a,
                                   const std::vector<value_t>& b,
                                   std::uint64_t seed) {
  std::vector<value_t> x(b.size());
  std::uint64_t s = seed;
  for (auto& v : x) {
    const double u = static_cast<double>(splitmix(s) >> 11) * 0x1.0p-53;
    v = 2.0 * u - 1.0;
  }
  sparse::normalize_initial_residual(a, b, x);
  return x;
}

Problem setup(const WorkloadSpec& w, const Seeds& s, Ledger* l) {
  Problem p;
  {
    const Span span(l, "sparse.generate");
    p.a = sparse::make_proxy(w.matrix, w.size_factor).a;
  }
  {
    graph::Graph g;
    {
      const Span span(l, "graph.build");
      g = graph::Graph::from_matrix_structure(p.a);
    }
    const Span span(l, "graph.partition");
    p.part = graph::partition_recursive_bisection(g, w.ranks);
  }
  if (w.driver != Driver::kElastic) {
    // run_elastic builds its own layout from (a, partition).
    const Span span(l, "dist.layout");
    p.layout = std::make_unique<dist::DistLayout>(p.a, p.part);
  }
  for (int v = 0; v < w.variants; ++v) {
    {
      const Span span(l, "sparse.variants");
      p.variants.push_back(sparse::make_tenant_variant(
          p.a, mix(s.variants, static_cast<std::uint64_t>(v))));
    }
    const Span span(l, "dist.layout");
    p.variant_layouts.push_back(
        std::make_unique<dist::DistLayout>(p.variants.back(), p.part));
  }
  const Span span(l, "sparse.initial_guess");
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  for (int j = 0; j < kInputSets; ++j) {
    p.x0.push_back(
        initial_guess(p.a, p.b, mix(s.x0, static_cast<std::uint64_t>(j))));
  }
  return p;
}

// --- Batched serving inputs ------------------------------------------------

struct BatchInputs {
  DistMethod method = kBJ;
  std::vector<int> matrix;  ///< per tenant: 0 = base, v = variant v
  std::vector<std::vector<value_t>> x0;
  std::vector<const dist::DistLayout*> layouts;
  std::vector<dist::TenantSpec> specs;
};

const CsrMatrix& matrix_of(const Problem& p, int m) {
  return m == 0 ? p.a : p.variants[static_cast<std::size_t>(m - 1)];
}

const dist::DistLayout& layout_of(const Problem& p, int m) {
  return m == 0 ? *p.layout : *p.variant_layouts[static_cast<std::size_t>(m - 1)];
}

/// The client's k-th request: a seeded mix of coefficient variants and
/// fresh initial guesses, solved by the k-th solver in rotation.
BatchInputs batch_inputs(const WorkloadSpec& w, const Problem& p,
                         const Seeds& s, int set, int k) {
  BatchInputs in;
  in.method = w.methods[static_cast<std::size_t>(k) % w.methods.size()];
  const std::uint64_t base = mix(s.tenants, static_cast<std::uint64_t>(set));
  for (int t = 0; t < w.tenants; ++t) {
    const std::uint64_t h =
        mix(base, static_cast<std::uint64_t>(k * w.tenants + t));
    const int m = static_cast<int>(h % static_cast<std::uint64_t>(w.variants + 1));
    in.matrix.push_back(m);
    in.x0.push_back(initial_guess(matrix_of(p, m), p.b, mix(h, 1)));
    in.layouts.push_back(&layout_of(p, m));
  }
  for (int t = 0; t < w.tenants; ++t) {
    dist::TenantSpec spec;
    spec.b = p.b;
    spec.x0 = in.x0[static_cast<std::size_t>(t)];
    in.specs.push_back(spec);
  }
  return in;
}

// --- Checks -----------------------------------------------------------------

/// ‖b − A x‖₂ with a plain CSR loop, independent of the library's SpMV.
double true_residual(const CsrMatrix& a, const std::vector<value_t>& b,
                     const std::vector<value_t>& x) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  double sum = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double ax = 0.0;
    for (index_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      ax += va[static_cast<std::size_t>(k)] *
            x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    }
    const double r = b[static_cast<std::size_t>(i)] - ax;
    sum += r * r;
  }
  return std::sqrt(sum);
}

std::uint64_t hash_bits(const std::vector<value_t>& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (double v : x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return h;
}

void fail(SystemRecord& s, const std::string& why) {
  if (s.ok) s.failure = why;
  s.ok = false;
}

/// Recompute each system's residual from its final iterate, compare it with
/// the recorded one, then free the iterate (keeping its hash).
void check_residuals(CallRecord& c, const Problem& p,
                     const std::vector<int>& matrices) {
  for (std::size_t i = 0; i < c.systems.size(); ++i) {
    SystemRecord& s = c.systems[i];
    const int m = matrices.empty() ? 0 : matrices[i];
    s.recomputed = true_residual(matrix_of(p, m), p.b, s.final_x);
    s.x_hash = hash_bits(s.final_x);
    const double gap = std::abs(s.recorded - s.recomputed);
    if (!(gap <= kResidualRelTol * s.recomputed)) {
      std::ostringstream os;
      os << c.label << ": recorded final residual " << s.recorded
         << " != recomputed " << s.recomputed;
      fail(s, os.str());
    }
    s.final_x.clear();
    s.final_x.shrink_to_fit();
  }
}

/// Two runs of the same inputs must agree bit for bit: steps, residual
/// series, modeled time, message counts, and the final iterate.
void check_same(CallRecord& c, const CallRecord& ref, const std::string& what) {
  bool same = c.steps == ref.steps && c.model_s == ref.model_s &&
              c.msgs == ref.msgs && c.msgs_logical == ref.msgs_logical &&
              c.bytes == ref.bytes && c.systems.size() == ref.systems.size();
  for (std::size_t i = 0; same && i < c.systems.size(); ++i) {
    same = c.systems[i].residual_norm == ref.systems[i].residual_norm &&
           c.systems[i].x_hash == ref.systems[i].x_hash;
  }
  if (!same) {
    for (auto& s : c.systems) fail(s, c.label + ": " + what);
  }
}

// --- Passes -----------------------------------------------------------------

/// One run of every driver call of a workload.
struct Pass {
  std::vector<CallRecord> calls;
  double solve_s = 0.0;    ///< Σ host time inside the driver calls
  double solve_cpu_s = 0.0;  ///< the same in CPU seconds (timed runs)
  double post_cpu_s = 0.0;   ///< export + analysis in CPU seconds (timed runs)
  double export_s = 0.0;   ///< trace export (elastic workloads)
  double analyze_s = 0.0;  ///< JSONL parse + analysis (elastic workloads)
  double solo_s = 0.0;     ///< serving check: 16 solo runs per batch
  std::uint64_t jsonl_bytes = 0;
  std::uint64_t trace_events = 0;
};

/// Export a call's trace to in-memory JSONL and run the analyzer on it.
void export_and_analyze(const WorkloadSpec& w, const CallRecord& c,
                        const dist::DistRunOptions& opt, Ledger* l,
                        Pass& pass) {
  if (!c.trace_log) return;
  std::string text;
  {
    const auto t0 = Clock::now();
    const Span span(l, "trace.export");
    std::ostringstream os;
    dsouth::trace::TraceExportOptions eo;
    eo.run_label = c.label;
    dsouth::trace::write_jsonl(os, *c.trace_log, eo);
    text = os.str();
    pass.export_s += seconds_since(t0);
  }
  pass.jsonl_bytes += text.size();
  pass.trace_events += c.trace_log->events.size();
  const auto t0 = Clock::now();
  const Span span(l, "analysis.analyze");
  dsouth::analysis::AnalyzeOptions ao;
  ao.model = opt.machine;
  for (const auto& run : dsouth::analysis::parse_jsonl(text)) {
    const auto report = dsouth::analysis::analyze_run(run, ao);
    if (report.num_ranks != w.ranks) {
      throw std::runtime_error("analysis lost the run's rank count");
    }
  }
  pass.analyze_s += seconds_since(t0);
}

/// Serving check: every tenant's batched iterate equals its solo run.
void check_solo(const BatchInputs& in, CallRecord& c,
                const dist::DistRunOptions& opt, Pass& pass) {
  for (std::size_t t = 0; t < in.specs.size(); ++t) {
    const auto t0 = Clock::now();
    const dist::DistRunResult solo = dist::run_distributed(
        in.method, *in.layouts[t], in.specs[t].b, in.specs[t].x0, opt);
    pass.solo_s += seconds_since(t0);
    if (solo.final_x != c.systems[t].final_x) {
      fail(c.systems[t], c.label + " tenant " + std::to_string(t) +
                             ": batched final_x differs from its solo run");
    }
  }
}

/// The inputs of the workload's k-th driver call.
struct CallInputs {
  DistMethod method = kBJ;
  const std::vector<value_t>* x0 = nullptr;  ///< solve and elastic calls
  BatchInputs batch;                         ///< serving only
};

std::size_t num_calls(const WorkloadSpec& w) {
  return w.driver == Driver::kBatch ? static_cast<std::size_t>(w.batches)
                                    : w.methods.size();
}

CallInputs call_inputs(const WorkloadSpec& w, const Problem& p,
                       const Seeds& s, int set, std::size_t k) {
  CallInputs in;
  if (w.driver == Driver::kBatch) {
    in.batch = batch_inputs(w, p, s, set, static_cast<int>(k));
    in.method = in.batch.method;
  } else {
    in.method = w.methods[k];
    in.x0 = &p.x0[static_cast<std::size_t>(set)];
  }
  return in;
}

/// One driver call through the library's single-call driver, timed.
CallRecord library_call(const WorkloadSpec& w, const Problem& p,
                        const CallInputs& in,
                        const dist::DistRunOptions& opt) {
  CallRecord c;
  double host = 0.0;
  const auto t0 = Clock::now();
  switch (w.driver) {
    case Driver::kBatch: {
      const auto r = dist::run_distributed_batch(
          in.method, in.batch.layouts, in.batch.specs, opt);
      host = seconds_since(t0);
      c = record_of(r);
      break;
    }
    case Driver::kElastic: {
      const auto r = dsouth::elastic::run_elastic(
          in.method, p.a, p.part, p.b, *in.x0, opt, recovery_options());
      host = seconds_since(t0);
      c = record_of(r.run);
      c.recoveries = r.recoveries.size();
      break;
    }
    case Driver::kSolve: {
      const auto r = dist::run_distributed(in.method, *p.layout, p.b, *in.x0, opt);
      host = seconds_since(t0);
      c = record_of(r);
      break;
    }
  }
  c.host_s = host;
  return c;
}

/// The same call through the hand-driven replica, a span per library call.
CallRecord replica_call(Ledger& l, const WorkloadSpec& w, const Problem& p,
                        const CallInputs& in,
                        const dist::DistRunOptions& opt) {
  switch (w.driver) {
    case Driver::kBatch:
      return traced_batch(l, in.method, in.batch.layouts, in.batch.specs,
                          opt);
    case Driver::kElastic:
      return traced_elastic(l, in.method, p.a, p.part, p.b, *in.x0, opt,
                            recovery_options());
    case Driver::kSolve:
      break;
  }
  return traced_solve(l, in.method, *p.layout, p.b, *in.x0, opt);
}

/// Post-run work of a pass: export every call's trace and analyse it (part
/// of wall_s), after the pass's driver calls so that the export's memory
/// traffic does not land inside the next call. With `ref`, each call's
/// export and analysis time is booked in reference seconds.
void export_pass(const WorkloadSpec& w, const dist::DistRunOptions& opt,
                 Ledger* l, Pass& pass, SpeedRef* ref = nullptr) {
  for (auto& c : pass.calls) {
    if (ref && c.trace_log) {
      const double export0 = pass.export_s, analyze0 = pass.analyze_s;
      const double before = ref->window();
      export_and_analyze(w, c, opt, l, pass);
      const double after = ref->window();
      pass.post_cpu_s += pass.export_s - export0 + pass.analyze_s - analyze0;
      pass.export_s =
          export0 + ref->scale(pass.export_s - export0, before, after);
      pass.analyze_s =
          analyze0 + ref->scale(pass.analyze_s - analyze0, before, after);
    } else {
      export_and_analyze(w, c, opt, l, pass);
    }
    c.trace_log.reset();
  }
}

/// Book a finished call into its pass and check its residuals (not timed).
void finish_call(const WorkloadSpec& w, const Problem& p, const CallInputs& in,
                 CallRecord c, Ledger* l, Pass& pass) {
  c.label = dist::method_abbrev(in.method);
  if (w.driver == Driver::kBatch) {
    c.label = "batch " + std::to_string(pass.calls.size()) + " " + c.label;
  }
  pass.solve_s += c.host_s;
  const auto check = [&] { check_residuals(c, p, in.batch.matrix); };
  if (l) {
    l->probe("bench.check", check);
  } else {
    check();
  }
  pass.calls.push_back(std::move(c));
}

/// Timed runs: every call of input set `set` through the library drivers,
/// each timed in reference seconds. `solo_check`: run the serving check (a
/// repeated pass is instead checked against its set's first pass, final
/// iterates included).
Pass run_pass(const WorkloadSpec& w, const Problem& p, const Seeds& s,
              int set, bool solo_check, SpeedRef& ref) {
  Pass pass;
  const dist::DistRunOptions opt = run_options(w, s, false);
  // The window after one call is the window before the next: only the
  // checks and the next call's inputs run between them.
  double before = ref.window();
  for (std::size_t k = 0; k < num_calls(w); ++k) {
    const CallInputs in = call_inputs(w, p, s, set, k);
    CallRecord c = library_call(w, p, in, opt);
    const double after = ref.window();
    pass.solve_cpu_s += c.host_s;
    c.host_s = ref.scale(c.host_s, before, after);
    before = after;
    if (solo_check && w.driver == Driver::kBatch) {
      check_solo(in.batch, c, opt, pass);
    }
    finish_call(w, p, in, std::move(c), nullptr, pass);
  }
  export_pass(w, opt, nullptr, pass, &ref);
  return pass;
}

/// A traced run: each call through the replica (spans), and — as probes,
/// outside the ledger — the same call untraced on the sequential backend
/// (the reference and the overhead base) and, for thread-pool workloads,
/// untraced on the pool. The untraced and traced call of a pair alternate
/// which runs first, so warm-up favours neither side.
struct TracedPasses {
  Pass traced, plain, threaded;
};

TracedPasses run_traced_passes(const WorkloadSpec& w, const Problem& p,
                               const Seeds& s, Ledger& l) {
  TracedPasses out;
  const dist::DistRunOptions seq = run_options(w, s, true);
  const dist::DistRunOptions pool = run_options(w, s, false);
  for (std::size_t k = 0; k < num_calls(w); ++k) {
    CallInputs in;
    l.probe("bench.inputs", [&] { in = call_inputs(w, p, s, 0, k); });
    const auto plain = [&] {
      l.probe("bench.untraced", [&] {
        CallRecord c = library_call(w, p, in, seq);
        if (w.driver == Driver::kBatch) {
          check_solo(in.batch, c, seq, out.plain);
        }
        finish_call(w, p, in, std::move(c), nullptr, out.plain);
        if (w.threads > 0) {
          finish_call(w, p, in, library_call(w, p, in, pool), nullptr,
                      out.threaded);
        }
      });
    };
    if (k % 2 == 0) plain();
    CallRecord c = replica_call(l, w, p, in, seq);
    if (k > 0) {
      c.rank_x.clear();
      c.rank_r.clear();
      c.state_layout.reset();
    }
    finish_call(w, p, in, std::move(c), &l, out.traced);
    if (k % 2 == 1) plain();
  }
  export_pass(w, seq, &l, out.traced);
  l.probe("bench.untraced", [&] { export_pass(w, seq, nullptr, out.plain); });
  return out;
}

// --- Statistics and output ----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean over the input sets of the median over each set's passes (pass k
/// ran set k mod kInputSets), so that one set's slower solves cannot tilt
/// the result by how many passes it happened to get.
double set_median(const std::vector<double>& per_pass) {
  double sum = 0.0;
  for (std::size_t j = 0; j < kInputSets; ++j) {
    std::vector<double> v;
    for (std::size_t k = j; k < per_pass.size(); k += kInputSets) {
      v.push_back(per_pass[k]);
    }
    sum += median(v);
  }
  return sum / kInputSets;
}

/// Percentile with linear interpolation between order statistics.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< shown in the human-readable report only
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    if (i) std::cout << ", ";
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::cout << "\"" << m.name << "\": {\"value\": " << fmt(v)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_table(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-36s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

void tally(const Pass& pass, Tally& t) {
  for (const auto& c : pass.calls) {
    for (const auto& s : c.systems) {
      ++t.attempted;
      if (!s.ok) {
        ++t.failed;
        if (t.failures.size() < 8) t.failures.push_back(s.failure);
      }
    }
  }
}

void report_failures(const WorkloadSpec& w, const Tally& t) {
  std::printf("checks: %llu of %llu solves failed (failed_frac %.4g)\n",
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.attempted),
              t.attempted ? static_cast<double>(t.failed) /
                                static_cast<double>(t.attempted)
                          : 0.0);
  for (const auto& f : t.failures) std::printf("  FAILED %s\n", f.c_str());
  if (t.failed > 0 && w.async) {
    std::printf(
        "  known defect: with async delivery the driver records the final\n"
        "  residual from local residuals while messages are still in flight,\n"
        "  so it is not the residual of the drained final iterate.\n");
  } else if (t.failed > 0 && w.kills) {
    std::printf(
        "  known defect: a solve that reaches its target in the step whose\n"
        "  fence opens a rank's kill epoch stops on a residual the dead rank\n"
        "  no longer updated; run_elastic detects the death only after the\n"
        "  next step, so it does not roll back.\n");
  }
}

std::uint64_t systems_per_pass(const Pass& pass) {
  std::uint64_t n = 0;
  for (const auto& c : pass.calls) n += c.systems.size();
  return n;
}

// --- --trace 0: end-to-end metrics --------------------------------------------

int run_timed(const WorkloadSpec& w, const Seeds& s, double seconds) {
  // Every timed section is booked in reference seconds (speedref.hpp).
  SpeedRef ref;
  // Untimed warm-up: the first runs pay lazy symbol binding and cold code.
  for (int i = 0; i < 3; ++i) ref.sample();
  const std::size_t warm_samples = ref.samples().size();

  // At least three setups, more while they total under a second.
  constexpr int kMinSetups = 3;
  constexpr double kMinSetupSeconds = 1.0;
  constexpr int kMaxSetups = 15;
  std::vector<double> setup_times, setup_cpu;
  double setup_total = 0.0;
  Problem p;
  while (static_cast<int>(setup_times.size()) < kMinSetups ||
         (setup_total < kMinSetupSeconds &&
          static_cast<int>(setup_times.size()) < kMaxSetups)) {
    p = Problem{};  // tear the previous copy down outside the timed region
    const double before = ref.window();
    const auto t0 = Clock::now();
    p = setup(w, s, nullptr);
    setup_cpu.push_back(seconds_since(t0));
    setup_times.push_back(
        ref.scale(setup_cpu.back(), before, ref.window()));
    setup_total += setup_times.back();
  }

  // Every input set once, then more rounds of passes over all the sets
  // until --seconds of measured CPU time (driver calls, export and
  // analysis; not the checks or the reference work) have accumulated.
  constexpr std::size_t kMaxPasses = 64;
  std::vector<Pass> passes;
  double measured = 0.0;
  while (passes.size() < static_cast<std::size_t>(kInputSets) ||
         passes.size() % kInputSets != 0 ||
         (measured < seconds && passes.size() < kMaxPasses)) {
    const bool first_of_set = passes.size() < kInputSets;
    passes.push_back(run_pass(w, p, s,
                              static_cast<int>(passes.size() % kInputSets),
                              first_of_set, ref));
    measured += passes.back().solve_cpu_s + passes.back().post_cpu_s;
  }

  // A repeated pass must reproduce its input set's first pass exactly.
  for (std::size_t k = kInputSets; k < passes.size(); ++k) {
    const Pass& first_pass = passes[k % kInputSets];
    for (std::size_t i = 0; i < passes[k].calls.size(); ++i) {
      check_same(passes[k].calls[i], first_pass.calls[i],
                 "pass " + std::to_string(k) + " differs from pass " +
                     std::to_string(k % kInputSets));
    }
  }
  Tally t;
  for (const auto& pass : passes) tally(pass, t);

  std::vector<double> solve, post, latency;
  for (const auto& pass : passes) {
    solve.push_back(pass.solve_s);
    post.push_back(pass.export_s + pass.analyze_s);
    // A batch is one request of the serving loop. The other workloads
    // serve no requests; their latency sample is one solve call's host
    // time per parallel step, which does not jump when a near-threshold
    // solve needs more steps for another seed.
    for (const auto& c : pass.calls) {
      latency.push_back(w.driver == Driver::kBatch || c.steps == 0
                            ? c.host_s * 1e3
                            : c.host_s * 1e3 / static_cast<double>(c.steps));
    }
  }
  // Deterministic totals: per-set means over the input sets.
  double model_s = 0.0, msgs = 0.0, steps = 0.0, reached = 0.0;
  for (int j = 0; j < kInputSets; ++j) {
    for (const auto& c : passes[static_cast<std::size_t>(j)].calls) {
      model_s += c.model_s / kInputSets;
      msgs += static_cast<double>(c.msgs) / kInputSets;
      steps += static_cast<double>(c.steps) / kInputSets;
      for (const auto& sys : c.systems) {
        if (sys.recomputed <= w.target) reached += 1.0 / kInputSets;
      }
    }
  }
  const Pass& first = passes.front();
  const double setup_s = median(setup_times);
  const double solve_s = set_median(solve);
  const std::string per =
      w.driver == Driver::kBatch ? "per batch" : "per step of a solve call";
  std::vector<Metric> m = {
      {"setup_s", setup_s, "s",
       "median of " + std::to_string(setup_times.size()) + " setups"},
      {"solve_s", solve_s, "s",
       "mean over input sets of the median over " +
           std::to_string(passes.size()) + " passes"},
      {"wall_s", setup_s + solve_s + set_median(post), "s", ""},
      {"solves_per_s", static_cast<double>(systems_per_pass(first)) / solve_s,
       "1/s", std::to_string(systems_per_pass(first)) + " systems per pass"},
      {"latency_p50_ms", percentile(latency, 0.5), "ms",
       per + ", " + std::to_string(latency.size()) + " samples"},
      {"latency_p90_ms", percentile(latency, 0.9), "ms", per},
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
      {"model_ms", model_s * 1e3, "ms", "deterministic"},
      {"msgs_per_rank", msgs / static_cast<double>(w.ranks), "msgs",
       "deterministic"},
      {"steps", steps, "steps", "deterministic"},
  };
  std::printf("workload %s: %s\n", w.name.c_str(), w.why.c_str());
  for (const auto& c : first.calls) {
    if (w.driver == Driver::kBatch) continue;
    const auto& sys = c.systems.front();
    std::printf(
        "  %-6s steps %5lld  model %.6g ms  recorded |r| %.6g  recomputed "
        "%.6g  host %.3f s\n",
        c.label.c_str(), static_cast<long long>(c.steps), c.model_s * 1e3,
        sys.recorded, sys.recomputed, c.host_s);
  }
  print_table(m);
  std::printf("  per-pass solve_s (reference s):");
  for (double v : solve) std::printf(" %.4f", v);
  std::printf("\n  per-pass solve (CPU s):");
  for (const auto& pass : passes) std::printf(" %.4f", pass.solve_cpu_s);
  if (w.driver == Driver::kElastic) {
    std::printf("\n  per-pass export + analysis (reference s):");
    for (double v : post) std::printf(" %.4f", v);
    std::printf("\n  per-pass export + analysis (CPU s):");
    for (const auto& pass : passes) std::printf(" %.4f", pass.post_cpu_s);
  }
  std::printf("\n  per-setup setup_s (reference s):");
  for (double v : setup_times) std::printf(" %.4f", v);
  std::printf("\n  per-setup setup (CPU s):");
  for (double v : setup_cpu) std::printf(" %.4f", v);
  const std::vector<double> ref_samples(
      ref.samples().begin() + static_cast<std::ptrdiff_t>(warm_samples),
      ref.samples().end());
  std::printf(
      "\n  reference work: %zu samples, median %.4f ms, p10 %.4f ms, p90 "
      "%.4f ms (nominal %.4f ms; checksum %llx)\n",
      ref_samples.size(), median(ref_samples) * 1e3,
      percentile(ref_samples, 0.1) * 1e3, percentile(ref_samples, 0.9) * 1e3,
      SpeedRef::kNominalS * 1e3, static_cast<unsigned long long>(ref.sink()));
  // Reported here and through attempted/failed, not as JSON metrics: both
  // can be 0, and targets_reached is a small count that flips with the
  // seed where a solver ends near its tolerance.
  print_table({{"targets_reached", reached, "count",
                "of " + std::to_string(systems_per_pass(first)) +
                    " per input set, deterministic"},
               {"failed_frac",
                t.attempted ? static_cast<double>(t.failed) /
                                  static_cast<double>(t.attempted)
                            : 0.0,
                "ratio", "failed / attempted"}});
  if (w.driver != Driver::kBatch) {
    std::printf(
        "  batch latency: n/a (serve_b16 only); latency_* here is the host\n"
        "  time per parallel step of each solve call\n");
  }
  report_failures(w, t);
  print_result(t.failed == 0, t.attempted, t.failed, m);
  return 0;
}

// --- --trace 1: per-layer metrics ---------------------------------------------

struct KernelStats {
  double rows_per_s = 0.0;
  double batch_rows_per_s = 0.0;
  double flops = 0.0;        ///< per sweep over every rank's block
  double bytes = 0.0;        ///< computed, per sweep
  double batch_flops = 0.0;  ///< per 16-lane sweep
  double batch_bytes = 0.0;  ///< computed, per 16-lane sweep
};

/// Compulsory bytes of one sweep over a block: the CSR arrays once, x and
/// r each read and written once per row. Computed from array sizes, so it
/// ignores cache behaviour.
double sweep_bytes(const CsrMatrix& a, std::size_t lanes) {
  const auto m = static_cast<double>(a.rows());
  const auto nnz = static_cast<double>(a.nnz());
  const double matrix = (m + 1) * sizeof(index_t) +
                        nnz * (sizeof(index_t) + sizeof(value_t));
  return matrix + static_cast<double>(lanes) * 4.0 * m * sizeof(value_t);
}

constexpr std::size_t kLanes = 16;

/// Time kernels::gs_sweep and gs_sweep_batch on the run's real a_local
/// blocks, on copies of its final x and r (restored before every sweep).
KernelStats kernel_probe(Ledger& l, const CallRecord& c) {
  KernelStats k;
  if (!c.state_layout || c.rank_x.empty()) return k;
  const auto& layout = *c.state_layout;
  const auto num_ranks = static_cast<std::size_t>(layout.num_ranks());
  double rows = 0.0;
  for (std::size_t p = 0; p < num_ranks; ++p) {
    const auto& a = layout.rank(static_cast<int>(p)).a_local;
    rows += static_cast<double>(a.rows());
    k.bytes += sweep_bytes(a, 1);
    k.batch_bytes += sweep_bytes(a, kLanes);
  }
  // The batched layout: every lane starts from the run's state.
  std::vector<std::vector<value_t>> soa_x(num_ranks), soa_r(num_ranks);
  for (std::size_t p = 0; p < num_ranks; ++p) {
    for (const value_t v : c.rank_x[p]) soa_x[p].insert(soa_x[p].end(), kLanes, v);
    for (const value_t v : c.rank_r[p]) soa_r[p].insert(soa_r[p].end(), kLanes, v);
  }
  // Whole sweeps over every block, from a fresh copy of the state each
  // time (copied outside the timed region), until the probe has run a
  // while.
  constexpr double kMinProbeSeconds = 0.25;
  constexpr int kMinReps = 3;
  const auto sweeps = [&](const char* name, const auto& xs0, const auto& rs0,
                          const auto& sweep, double& flops) {
    double t = 0.0;
    int reps = 0;
    while (t < kMinProbeSeconds || reps < kMinReps) {
      auto xs = xs0;
      auto rs = rs0;
      flops = 0.0;
      t += l.probe(name, [&] {
        for (std::size_t p = 0; p < num_ranks; ++p) {
          flops += sweep(layout.rank(static_cast<int>(p)).a_local, xs[p],
                         rs[p]);
        }
      });
      ++reps;
    }
    return reps / t;  // sweeps per second
  };
  k.rows_per_s = rows * sweeps("kernels.gs_sweep", c.rank_x, c.rank_r,
                               [](const CsrMatrix& a, auto& x, auto& r) {
                                 return dsouth::kernels::gs_sweep(a, x, r);
                               },
                               k.flops);
  k.batch_rows_per_s =
      rows * kLanes *
      sweeps("kernels.gs_sweep_batch", soa_x, soa_r,
             [](const CsrMatrix& a, auto& x, auto& r) {
               return dsouth::kernels::gs_sweep_batch(a, kLanes, x, r);
             },
             k.batch_flops);
  return k;
}

int run_traced(const WorkloadSpec& w, const Seeds& s) {
  // Setup and every driver call with a span per library call; the
  // untraced reference calls run inside the window as probes.
  Ledger l;
  l.open();
  Problem p = setup(w, s, &l);
  TracedPasses passes = run_traced_passes(w, p, s, l);
  l.close();
  Pass& traced = passes.traced;
  const Pass& plain = passes.plain;
  const Pass& threaded = passes.threaded;

  // Probes on the traced run's inputs and state (after the window).
  double edge_cut = 0.0;
  {
    const graph::Graph g = graph::Graph::from_matrix_structure(p.a);
    edge_cut = static_cast<double>(
        graph::evaluate_partition(g, p.part).edge_cut);
  }
  const KernelStats ks = kernel_probe(l, traced.calls.front());
  for (auto& c : traced.calls) {
    c.rank_x.clear();
    c.rank_r.clear();
    c.state_layout.reset();
  }

  for (std::size_t i = 0; i < traced.calls.size(); ++i) {
    check_same(traced.calls[i], plain.calls[i],
               "traced run differs from the untraced run");
    if (w.threads > 0) {
      check_same(traced.calls[i], threaded.calls[i],
                 "thread-pool run differs from the sequential run");
    }
  }
  Tally t;
  tally(traced, t);
  tally(plain, t);
  if (w.threads > 0) tally(threaded, t);

  // Totals over the traced pass.
  double relax = 0.0, msgs = 0.0, logical = 0.0, bytes = 0.0, epochs = 0.0;
  double delivered = 0.0, staleness = 0.0, dropped = 0.0, recoveries = 0.0;
  double ckpt_bytes = 0.0, gap = 0.0, reached = 0.0;
  for (const auto& c : traced.calls) {
    relax += static_cast<double>(c.relaxations);
    msgs += static_cast<double>(c.msgs);
    logical += static_cast<double>(c.msgs_logical);
    bytes += static_cast<double>(c.bytes);
    epochs += static_cast<double>(c.epochs);
    delivered += static_cast<double>(c.async_delivered);
    staleness += static_cast<double>(c.staleness_sum);
    dropped += static_cast<double>(c.msgs_dropped);
    recoveries += static_cast<double>(c.recoveries);
    ckpt_bytes += static_cast<double>(c.checkpoint_bytes);
    for (const auto& sys : c.systems) {
      gap = std::max(gap, std::abs(sys.recorded - sys.recomputed) /
                              sys.recomputed);
      if (sys.recomputed <= w.target) reached += 1.0;
    }
  }
  const double wall = l.wall();
  const double batch_speedup =
      w.driver == Driver::kBatch && plain.solve_s > 0.0
          ? plain.solo_s / plain.solve_s
          : 0.0;
  const double pool_eff =
      w.threads > 0 ? plain.solve_s / (w.threads * threaded.solve_s) : 0.0;
  const auto self = [&](const char* name) { return l.self(name); };
  std::vector<Metric> m = {
      {"sparse.generate_s", self("sparse.generate"), "s", ""},
      {"graph.partition_s", self("graph.partition"), "s", ""},
      {"graph.edge_cut", edge_cut, "edges", ""},
      {"dist.layout_s", self("dist.layout"), "s", ""},
      {"dist.harness_s", self("dist.harness"), "s", "runtime + solver setup"},
      {"dist.send_s", self("dist.send"), "s", "rank_send / rank_async_send"},
      {"dist.absorb_s", self("dist.absorb"), "s", "rank_absorb / demux"},
      {"dist.observe_s", self("dist.observe"), "s", "residual recording"},
      {"dist.relaxations", relax, "rows", ""},
      {"dist.targets_reached", reached, "count",
       "solves whose recomputed residual reaches the tolerance"},
      {"dist.residual_gap", gap, "ratio", "max |recorded - recomputed| / recomputed"},
      {"dist.batch_speedup", batch_speedup, "ratio", "16 solo runs / 1 batch"},
      {"kernels.gs_sweep_rows_per_s", ks.rows_per_s, "rows/s", ""},
      {"kernels.gs_sweep_batch_rows_per_s", ks.batch_rows_per_s, "rows/s",
       "16 lanes, lane-rows"},
      {"kernels.gs_sweep_flops", ks.flops, "flop", "one sweep, all blocks"},
      {"kernels.gs_sweep_bytes", ks.bytes, "B", "computed, not measured"},
      {"kernels.gs_sweep_flop_per_byte", ks.bytes > 0 ? ks.flops / ks.bytes : 0.0,
       "flop/B", "computed bytes; no roofline (no measured peak)"},
      {"kernels.gs_sweep_batch_flops", ks.batch_flops, "flop", "16 lanes"},
      {"kernels.gs_sweep_batch_bytes", ks.batch_bytes, "B", "computed"},
      {"wire.decode_s", l.probe_time("wire.decode"), "s",
       "replayed decode of every delivered payload"},
      {"wire.records_per_msg", msgs > 0 ? logical / msgs : 0.0, "ratio", ""},
      {"simmpi.fence_s", self("simmpi.fence"), "s", ""},
      {"simmpi.epochs", epochs, "count", ""},
      {"simmpi.msgs", msgs, "msgs", "physical"},
      {"simmpi.bytes", bytes, "B", "modeled"},
      {"elastic.checkpoint_encode_s", self("elastic.encode"), "s", ""},
      {"elastic.checkpoint_bytes", ckpt_bytes, "B", "all checkpoints"},
      {"trace.events", static_cast<double>(traced.trace_events), "count", ""},
      {"trace.export_s", self("trace.export"), "s", ""},
      {"trace.jsonl_bytes", static_cast<double>(traced.jsonl_bytes), "B", ""},
      {"analysis.analyze_s", self("analysis.analyze"), "s",
       "parse_jsonl + analyze_run"},
  };
  // Self time of the layers every workload runs through; the optional
  // layers' time is in their own metrics above and in the span table.
  for (const char* layer : {"sparse", "graph", "dist", "simmpi"}) {
    m.push_back({std::string("self.") + layer + "_s",
                 l.self_prefix(std::string(layer) + "."), "s",
                 "self time, all spans of the layer"});
  }
  m.push_back({"bench.unattributed_s", wall - l.attributed(), "s",
               "ledger wall minus attributed"});
  m.push_back({"bench.coverage", l.attributed() / wall, "ratio",
               "attributed / traced wall"});
  m.push_back({"bench.trace_overhead_frac",
               plain.solve_s > 0 ? traced.solve_s / plain.solve_s - 1.0 : 0.0,
               "ratio", "traced / untraced sequential solve time - 1"});

  std::printf("workload %s (traced, sequential): %s\n", w.name.c_str(),
              w.why.c_str());
  std::printf("ledger wall %.4f s, attributed %.4f s\n", wall, l.attributed());
  std::printf("  %-28s %12s %12s %8s\n", "span", "calls", "self_s", "share");
  for (const auto& [name, e] : l.entries()) {
    std::printf("  %-28s %12lld %12.6f %7.2f%%\n", name.c_str(), e.calls,
                e.self_s, 100.0 * e.self_s / wall);
  }
  std::printf("  probes (excluded from the wall):\n");
  for (const auto& [name, e] : l.probes()) {
    std::printf("  %-28s %12lld %12.6f\n", name.c_str(), e.calls, e.self_s);
  }
  print_table(m);
  // Layers that only the runnable-by-name workloads reach (the thread pool,
  // kills, async delivery, message faults); not JSON metrics until such a
  // workload is in BENCHMARK.json.
  std::printf(
      "  reached only by deep_p32_t2 / resilient_p256 / elastic_p256:\n");
  print_table({
      {"simmpi.pool_efficiency", pool_eff, "ratio",
       "sequential / (threads x thread-pool) solve time"},
      {"graph.repartition_s", self("graph.repartition"), "s", ""},
      {"elastic.checkpoint_decode_s", self("elastic.decode"), "s", ""},
      {"elastic.recoveries", recoveries, "count", ""},
      {"simmpi.async_delivered", delivered, "msgs", ""},
      {"simmpi.staleness_mean", delivered > 0 ? staleness / delivered : 0.0,
       "epochs", ""},
      {"faults.msgs_dropped", dropped, "msgs", ""},
  });
  report_failures(w, t);
  print_result(t.failed == 0, t.attempted, t.failed, m);
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               argv0);
  for (const auto& w : workload_table()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int run_main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage(argv[0]);
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload")) return usage(argv[0]);
  const std::uint64_t seed =
      args.count("seed") ? std::stoull(args["seed"]) : 1;
  const double seconds = args.count("seconds") ? std::stod(args["seconds"]) : 0;
  const bool traced = args.count("trace") && args["trace"] == "1";
  for (const auto& w : workload_table()) {
    if (w.name != args["workload"]) continue;
    const Seeds s = derive_seeds(seed);
    Clock::wall = w.threads > 0;
    return traced ? run_traced(w, s) : run_timed(w, s, seconds);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args["workload"].c_str());
  return usage(argv[0]);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
