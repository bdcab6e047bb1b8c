/// \file dsouth_analyze.cpp
/// `dsouth-analyze`: the offline half of the observability stack. Reads a
/// JSON Lines trace capture (the `-trace foo.jsonl` output of any
/// distributed bench, possibly holding several runs) and emits, per run,
/// the four analyzer reports — per-rank timeline & load imbalance, P×P
/// communication matrix with hot-pair ranking, α–β–γ critical-path
/// attribution, and convergence diagnostics — as ASCII, CSV, and/or JSON.
///
/// Because the trace is deterministic (docs/observability.md), every
/// deterministic output of this tool is byte-identical no matter which
/// execution backend produced the capture. `-check` turns that promise
/// into an exit code: it fails unless the critical-path report reproduces
/// every fence's modeled seconds bit-exactly AND the comm-matrix totals
/// equal the run's simmpi.* counters (i.e. CommStats) exactly. Every rule
/// is evaluated — a failure is reported and accumulated, never an early
/// exit — so one pass lists everything wrong with a capture.
///
/// `-prof-record FILE` adds the host-profiling cross-rules: the
/// dsouth.prof_record document (a bench's `-prof-record` output) must
/// satisfy the span-nesting and lane-discipline invariants of src/prof,
/// and its allocation-window counters must equal the prof.* gauges the
/// driver exported into the trace, exactly.
///
/// Usage:
///   dsouth-analyze -trace runs.jsonl [-run SUBSTR] [-format ascii|csv|json|all]
///                  [-out PREFIX] [-top K] [-check] [-prof-record FILE] [-list]
///                  [-alpha A] [-beta B] [-gamma G] [-sigma S] [-flop_time C]
///
/// The machine-model flags must match the traced run's model (the benches
/// all use the MachineModel defaults); `-check` is how you find out when
/// they do not.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/render.hpp"
#include "analysis/run_trace.hpp"
#include "simmpi/machine_model.hpp"
#include "simmpi/stats.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using dsouth::analysis::AnalyzeOptions;
using dsouth::analysis::RunAnalysis;
using dsouth::analysis::RunTrace;

/// Filesystem-friendly run label: [A-Za-z0-9._-] kept, runs of anything
/// else collapsed to one '_'.
std::string slug(const std::string& label) {
  std::string out;
  bool gap = false;
  for (char c : label) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    if (ok) {
      if (gap && !out.empty()) out += '_';
      gap = false;
      out += c;
    } else {
      gap = true;
    }
  }
  return out.empty() ? "run" : out;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream os(path, std::ios::binary);
  DSOUTH_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  os << body;
  DSOUTH_CHECK_MSG(os.good(), "write to '" << path << "' failed");
  std::cerr << "wrote " << path << "\n";
}

/// One run of a `dsouth.prof_record` document (the `-prof-record` output
/// of any bench), reduced to what the cross-rules need: per-(lane, phase)
/// aggregates plus the allocation-window counters.
struct ProfRecordRun {
  struct PhaseSlot {
    std::string phase;
    int lane = -1;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t hist_sum = 0;
  };
  std::string label;
  int num_ranks = 0;
  bool alloc_tracking = false;
  std::uint64_t allocs_total = 0;
  std::uint64_t allocs_bytes = 0;
  std::uint64_t frees_total = 0;
  std::vector<PhaseSlot> phases;

  /// Summed total_ns of `phase` across rank lanes (lane < num_ranks) or on
  /// the runtime lane only (`runtime_lane` true).
  std::uint64_t phase_total(const std::string& phase,
                            bool runtime_lane) const {
    std::uint64_t sum = 0;
    for (const auto& s : phases) {
      if (s.phase == phase && (s.lane == num_ranks) == runtime_lane) {
        sum += s.total_ns;
      }
    }
    return sum;
  }
};

std::vector<ProfRecordRun> read_prof_record(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DSOUTH_CHECK_MSG(is.good(), "cannot open prof record '" << path << "'");
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  const dsouth::util::JsonValue doc = dsouth::util::parse_json(text);
  DSOUTH_CHECK_MSG(doc.at("schema").as_string() == "dsouth.prof_record",
                   "'" << path << "' is not a dsouth.prof_record document");
  std::vector<ProfRecordRun> runs;
  for (const auto& jr : doc.at("runs").as_array()) {
    ProfRecordRun run;
    run.label = jr.at("label").as_string();
    run.num_ranks = static_cast<int>(jr.at("num_ranks").as_int());
    run.alloc_tracking = jr.at("alloc_tracking").as_bool();
    run.allocs_total =
        static_cast<std::uint64_t>(jr.at("allocs_total").as_int());
    run.allocs_bytes =
        static_cast<std::uint64_t>(jr.at("allocs_bytes").as_int());
    run.frees_total =
        static_cast<std::uint64_t>(jr.at("frees_total").as_int());
    for (const auto& jp : jr.at("phases").as_array()) {
      ProfRecordRun::PhaseSlot slot;
      slot.phase = jp.at("phase").as_string();
      slot.lane = static_cast<int>(jp.at("lane").as_int());
      slot.count = static_cast<std::uint64_t>(jp.at("count").as_int());
      slot.total_ns = static_cast<std::uint64_t>(jp.at("total_ns").as_int());
      slot.max_ns = static_cast<std::uint64_t>(jp.at("max_ns").as_int());
      for (const auto& b : jp.at("hist").as_array()) {
        slot.hist_sum += static_cast<std::uint64_t>(b.as_int());
      }
      run.phases.push_back(std::move(slot));
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

/// The prof cross-rules for one record run: structural invariants every
/// profiler capture must satisfy regardless of backend or timing (lane
/// discipline, span nesting, histogram bookkeeping, alloc-hook
/// consistency). Prints one line per check; returns false if any fails.
bool check_prof_record_run(const ProfRecordRun& pr) {
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    std::cout << (cond ? "CHECK ok:   " : "CHECK FAIL: ") << what << "\n";
    ok = ok && cond;
  };

  check(pr.num_ranks >= 1, "prof run has num_ranks >= 1");
  bool slots_ok = true, lanes_ok = true, hists_ok = true;
  for (const auto& s : pr.phases) {
    // Rank lanes only carry the solver phases; the runtime lane only the
    // driver/fence/analysis phases (prof.hpp's lane discipline).
    const bool solver_phase = s.phase == "absorb" || s.phase == "relax" ||
                              s.phase == "encode" || s.phase == "stage";
    const bool runtime_phase = s.phase == "step" || s.phase == "fence" ||
                               s.phase == "delivery_policy" ||
                               s.phase == "node_prepass" ||
                               s.phase == "analysis";
    if (s.lane < 0 || s.lane > pr.num_ranks ||
        (s.lane == pr.num_ranks ? !runtime_phase : !solver_phase)) {
      lanes_ok = false;
    }
    // count * max_ns can exceed uint64; when it would overflow the
    // product is > UINT64_MAX >= total_ns, so the bound trivially holds.
    const bool prod_overflows =
        s.max_ns != 0 &&
        s.count > std::numeric_limits<std::uint64_t>::max() / s.max_ns;
    if (s.count == 0 || s.max_ns > s.total_ns ||
        (!prod_overflows && s.total_ns > s.count * s.max_ns)) {
      slots_ok = false;
    }
    if (s.hist_sum != s.count) hists_ok = false;
  }
  check(lanes_ok, "every slot is on a valid lane for its phase");
  check(slots_ok, "every slot has count >= 1 and max <= total <= count*max");
  check(hists_ok, "every slot's histogram sums to its span count");

  // Nesting: delivery-policy and node-prepass spans lie strictly inside
  // fence spans; every rank-lane span lies inside a driver step span, and
  // a lane's absorb/relax/stage spans are mutually disjoint, so per lane
  // their wall total cannot exceed the step wall total. (Encode is checked
  // separately: its spans can nest inside relax spans.)
  const std::uint64_t step_total = pr.phase_total("step", true);
  const std::uint64_t fence_total = pr.phase_total("fence", true);
  check(pr.phase_total("delivery_policy", true) +
            pr.phase_total("node_prepass", true) <=
        fence_total,
        "delivery-policy + node-prepass wall <= fence wall (nesting)");
  bool lanes_nested = true, encode_nested = true;
  for (int lane = 0; lane < pr.num_ranks; ++lane) {
    std::uint64_t disjoint = 0, encode = 0;
    for (const auto& s : pr.phases) {
      if (s.lane != lane) continue;
      if (s.phase == "encode") {
        encode = s.total_ns;
      } else {
        disjoint += s.total_ns;
      }
    }
    if (disjoint > step_total) lanes_nested = false;
    if (encode > step_total) encode_nested = false;
  }
  check(lanes_nested,
        "per rank lane: absorb + relax + stage wall <= step wall (nesting)");
  check(encode_nested, "per rank lane: encode wall <= step wall (nesting)");

  // The alloc counters only move when the interposing hook is linked in.
  check(pr.alloc_tracking ||
            (pr.allocs_total == 0 && pr.allocs_bytes == 0 &&
             pr.frees_total == 0),
        "alloc counters are zero when alloc tracking is off");
  return ok;
}

/// Cross-checks one trace run against its prof-record counterpart: the
/// driver exports the profiler's own alloc-window counters as prof.*
/// gauges, so trace and record must agree exactly. Returns false on any
/// mismatch (including a missing record entry).
bool check_prof_vs_trace(const RunTrace& run,
                         const std::vector<ProfRecordRun>& record) {
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    std::cout << (cond ? "CHECK ok:   " : "CHECK FAIL: ") << what << "\n";
    ok = ok && cond;
  };
  const ProfRecordRun* pr = nullptr;
  for (const auto& r : record) {
    if (r.label == run.label) pr = &r;
  }
  check(pr != nullptr, "prof record has an entry for this run label");
  if (pr == nullptr) return ok;
  check(pr->num_ranks == run.num_ranks, "prof record num_ranks == trace P");
  auto metric_total = [&](const char* name) -> std::uint64_t {
    const auto* m = run.find_metric(name);
    return m ? static_cast<std::uint64_t>(m->total()) : 0;
  };
  if (run.find_metric("prof.allocs_total") != nullptr) {
    check(metric_total("prof.alloc_tracking") ==
              (pr->alloc_tracking ? 1U : 0U),
          "prof.alloc_tracking metric == prof record alloc_tracking");
    check(metric_total("prof.allocs_total") == pr->allocs_total,
          "prof.allocs_total metric == prof record allocs_total");
    check(metric_total("prof.allocs_bytes") == pr->allocs_bytes,
          "prof.allocs_bytes metric == prof record allocs_bytes");
    check(metric_total("prof.frees_total") == pr->frees_total,
          "prof.frees_total metric == prof record frees_total");
  } else {
    check(false,
          "trace has prof.* gauges (required when -prof-record is given)");
  }
  return ok;
}

/// The `-check` consistency gate for one run. Prints one line per check;
/// returns false if any fails.
bool run_checks(const RunTrace& run, const RunAnalysis& a) {
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    std::cout << (cond ? "CHECK ok:   " : "CHECK FAIL: ") << what << "\n";
    ok = ok && cond;
  };

  check(run.dropped_events == 0, "trace is drop-free");
  check(a.critical_path.model_matches,
        "critical path reproduces every fence's modeled seconds bit-exactly");

  // Comm-matrix totals vs the run's end-of-run counters (CommStats' view).
  auto counter_total = [&](const char* name) -> std::uint64_t {
    const auto* m = run.find_metric(name);
    return m ? static_cast<std::uint64_t>(m->total()) : 0;
  };
  if (run.find_metric("simmpi.msgs_sent") != nullptr) {
    check(a.comm.total_msgs == counter_total("simmpi.msgs_sent"),
          "comm matrix total msgs == simmpi.msgs_sent");
    check(a.comm.total_bytes == counter_total("simmpi.bytes_sent"),
          "comm matrix total bytes == simmpi.bytes_sent");
    using dsouth::simmpi::MsgTag;
    check(a.comm.total_by_tag[static_cast<int>(MsgTag::kSolve)] ==
              counter_total("simmpi.msgs_solve"),
          "solve-tag msgs == simmpi.msgs_solve");
    check(a.comm.total_by_tag[static_cast<int>(MsgTag::kResidual)] ==
              counter_total("simmpi.msgs_residual"),
          "residual-tag msgs == simmpi.msgs_residual");
    check(a.comm.total_by_tag[static_cast<int>(MsgTag::kOther)] ==
              counter_total("simmpi.msgs_other"),
          "other-tag msgs == simmpi.msgs_other");
    // Wire-layer split (present in traces since the codec landed): kPut
    // events and the comm matrix count physical puts, so msgs_physical
    // must equal the matrix total; logical records can only exceed the
    // physical count (coalesced frames carry several records per put).
    if (run.find_metric("simmpi.msgs_physical") != nullptr) {
      check(a.comm.total_msgs == counter_total("simmpi.msgs_physical"),
            "comm matrix total msgs == simmpi.msgs_physical");
      check(counter_total("simmpi.msgs_logical") >=
                counter_total("simmpi.msgs_physical"),
            "simmpi.msgs_logical >= simmpi.msgs_physical");
    }
  } else {
    check(false, "trace has simmpi.* counters (needed for comm cross-check)");
  }

  // Fault-injection cross-checks: the runtime bumps one simmpi.faults_*
  // counter per fault event it records (faults_corrupted covers both the
  // corrupt and truncate actions; stalls have no counter), so the version-3
  // event tallies must reproduce the metric totals exactly. Traces without
  // the counters (fault-free runs, older captures) skip this block — the
  // fault report is then all-zero and there is nothing to cross-check.
  if (run.find_metric("simmpi.faults_dropped") != nullptr) {
    using dsouth::analysis::FaultReport;
    const auto& f = a.faults;
    check(f.by_action[FaultReport::kDrop] ==
              counter_total("simmpi.faults_dropped"),
          "drop fault events == simmpi.faults_dropped");
    check(f.by_action[FaultReport::kDuplicate] ==
              counter_total("simmpi.faults_duplicated"),
          "duplicate fault events == simmpi.faults_duplicated");
    check(f.by_action[FaultReport::kReorder] ==
              counter_total("simmpi.faults_reordered"),
          "reorder fault events == simmpi.faults_reordered");
    check(f.by_action[FaultReport::kCorrupt] +
                  f.by_action[FaultReport::kTruncate] ==
              counter_total("simmpi.faults_corrupted"),
          "corrupt+truncate fault events == simmpi.faults_corrupted");
  }

  // Async-delivery cross-checks: under an async window the runtime
  // records one version-4 deliver event per matured message and bumps the
  // simmpi.async_* metrics in the same place, so event tallies and metric
  // totals must agree exactly. Bulk-synchronous traces lack the counters
  // and skip the block (the async report is then all-zero).
  if (run.find_metric("simmpi.async_delivered") != nullptr) {
    check(a.async.delivered == counter_total("simmpi.async_delivered"),
          "deliver events == simmpi.async_delivered");
    check(a.async.staleness_sum ==
              counter_total("simmpi.async_staleness_sum"),
          "deliver-event staleness sum == simmpi.async_staleness_sum");
    // async_staleness_max is a per-rank gauge: compare against the max
    // slot, not the sum.
    std::uint64_t metric_max = 0;
    if (const auto* m = run.find_metric("simmpi.async_staleness_max")) {
      for (double v : m->per_rank) {
        metric_max = std::max(metric_max, static_cast<std::uint64_t>(v));
      }
    }
    check(a.async.staleness_max == metric_max,
          "deliver-event staleness max == simmpi.async_staleness_max");
  }

  // Node-aware routing cross-checks: the fence pre-pass records one
  // version-5 hop event per physical message and bumps the simmpi.node_*
  // counters in the same place, so the event tier sums must reproduce the
  // metric totals exactly, and the leader->leader hop count must equal the
  // forward-frame counter. Single-level traces lack the counters and skip
  // the block (the node report is then all-zero).
  if (run.find_metric("simmpi.node_msgs_intra") != nullptr) {
    using dsouth::analysis::NodeReport;
    const auto& n = a.node;
    check(n.msgs_intra == counter_total("simmpi.node_msgs_intra"),
          "intra-tier hop events == simmpi.node_msgs_intra");
    check(n.bytes_intra == counter_total("simmpi.node_bytes_intra"),
          "intra-tier hop bytes == simmpi.node_bytes_intra");
    check(n.msgs_inter == counter_total("simmpi.node_msgs_inter"),
          "inter-tier hop events == simmpi.node_msgs_inter");
    check(n.bytes_inter == counter_total("simmpi.node_bytes_inter"),
          "inter-tier hop bytes == simmpi.node_bytes_inter");
    check(n.hops_by_kind[dsouth::trace::kHopInterLeader] ==
              counter_total("simmpi.node_forward_frames"),
          "leader->leader hop events == simmpi.node_forward_frames");
    check(n.forwarded_records ==
              counter_total("simmpi.node_forwarded_records"),
          "forwarded-record tally == simmpi.node_forwarded_records");
  }

  // Elastic recovery cross-checks: the elastic driver records version-6
  // events but no metrics (the final generation's CommStats were restored
  // from a checkpoint, so counters cannot corroborate events), so these
  // rules are internal to the event stream. Every recovery emits exactly
  // one restore, one repartition per dead rank, and one fresh checkpoint,
  // after the mandatory step-0 checkpoint — the stream must show that
  // shape. Kill-free traces carry no elastic events and skip the block.
  if (a.elastic.any()) {
    using dsouth::analysis::ElasticReport;
    const auto& el = a.elastic;
    check(el.by_action[ElasticReport::kCheckpoint] +
                  el.by_action[ElasticReport::kKill] +
                  el.by_action[ElasticReport::kRestore] +
                  el.by_action[ElasticReport::kRepartition] ==
              el.total,
          "every elastic event carries a known action code");
    check(el.by_action[ElasticReport::kCheckpoint] > 0,
          "elastic trace has at least one checkpoint event");
    check(el.checkpoint_bytes_min > 0,
          "every checkpoint event carries a positive byte count");
    check(el.by_action[ElasticReport::kRestore] <=
              el.by_action[ElasticReport::kKill],
          "restore events <= kill events (a restore needs a death)");
    check(el.by_action[ElasticReport::kRepartition] ==
              el.by_action[ElasticReport::kKill],
          "one repartition event per detected kill");
    check(el.restores_ordered,
          "every restore follows a checkpoint and a kill in stream order");
    check(el.by_action[ElasticReport::kKill] <
              static_cast<std::uint64_t>(run.num_ranks),
          "fewer kills than ranks (someone survived to recover)");
    bool ranks_ok = true;
    std::vector<char> seen(static_cast<std::size_t>(run.num_ranks), 0);
    for (int r : el.dead_ranks) {
      if (r < 0 || r >= run.num_ranks || seen[static_cast<std::size_t>(r)]) {
        ranks_ok = false;
        break;
      }
      seen[static_cast<std::size_t>(r)] = 1;
    }
    check(ranks_ok, "kill events name distinct in-range ranks");
  }
  return ok;
}

int run_main(int argc, char** argv) {
  dsouth::util::ArgParser args(argc, argv);

  if (args.has("help")) {
    std::cout
        << "usage: " << args.program() << " -trace FILE [options]\n"
        << "  -trace FILE    JSONL trace capture (required)\n"
        << "  -list          list run labels in the capture and exit\n"
        << "  -run SUBSTR    only analyze runs whose label contains SUBSTR\n"
        << "  -format F      ascii|csv|json|all (default ascii)\n"
        << "  -out PREFIX    file prefix for csv/json output\n"
        << "                 (default: trace path minus .jsonl)\n"
        << "  -top K         hot pairs to list (default 10)\n"
        << "  -check         verify model reconstruction + counter\n"
        << "                 consistency; nonzero exit on failure\n"
        << "                 (every rule runs; failures accumulate)\n"
        << "  -prof-record FILE  dsouth.prof_record to cross-check against\n"
        << "                 the trace's prof.* gauges (implies -check)\n"
        << "  -alpha/-beta/-gamma/-sigma/-flop_time  machine model\n"
        << "                 overrides (defaults match the benches)\n";
    return 0;
  }

  auto trace_path = args.get("trace");
  DSOUTH_CHECK_MSG(trace_path.has_value(),
                   "missing required -trace FILE (see -help)");

  const bool list_only = args.has("list");
  const std::string run_filter = args.get_or("run", "");
  const std::string format =
      args.get_choice_or("format", {"ascii", "csv", "json", "all"}, "ascii");
  const auto prof_record_path = args.get("prof-record");
  const bool check = args.has("check") || prof_record_path.has_value();
  std::string out_prefix = args.get_or("out", "");
  if (out_prefix.empty()) {
    out_prefix = *trace_path;
    const std::string ext = ".jsonl";
    if (out_prefix.size() > ext.size() &&
        out_prefix.compare(out_prefix.size() - ext.size(), ext.size(), ext) ==
            0) {
      out_prefix.resize(out_prefix.size() - ext.size());
    }
  }

  AnalyzeOptions opt;
  opt.top_pairs = static_cast<int>(args.get_int_or("top", 10));
  opt.model.alpha = args.get_double_or("alpha", opt.model.alpha);
  opt.model.beta = args.get_double_or("beta", opt.model.beta);
  opt.model.gamma = args.get_double_or("gamma", opt.model.gamma);
  opt.model.sigma = args.get_double_or("sigma", opt.model.sigma);
  opt.model.flop_time = args.get_double_or("flop_time", opt.model.flop_time);

  auto unknown = args.unqueried();
  DSOUTH_CHECK_MSG(unknown.empty(), "unknown option -" << unknown.front()
                                                       << " (see -help)");

  std::vector<RunTrace> runs =
      dsouth::analysis::read_jsonl_file(*trace_path);
  DSOUTH_CHECK_MSG(!runs.empty(), "no runs found in '" << *trace_path << "'");

  std::vector<ProfRecordRun> prof_record;
  if (prof_record_path.has_value()) {
    prof_record = read_prof_record(*prof_record_path);
    DSOUTH_CHECK_MSG(!prof_record.empty(),
                     "no runs in prof record '" << *prof_record_path << "'");
  }

  if (list_only) {
    for (const auto& r : runs) {
      std::cout << r.label << "  (P=" << r.num_ranks << ", "
                << r.events.size() << " events, v" << r.version << ")\n";
    }
    return 0;
  }

  bool all_ok = true;
  int analyzed = 0;
  for (const auto& run : runs) {
    if (!run_filter.empty() &&
        run.label.find(run_filter) == std::string::npos) {
      continue;
    }
    ++analyzed;
    RunAnalysis a = dsouth::analysis::analyze_run(run, opt);

    if (format == "ascii" || format == "all") {
      dsouth::analysis::render_ascii(std::cout, a, opt);
      std::cout << "\n";
    }
    if (format == "csv" || format == "all") {
      const std::string base = out_prefix + "_" + slug(run.label);
      write_file(base + "_timeline.csv", dsouth::analysis::timeline_csv(a));
      write_file(base + "_steps.csv", dsouth::analysis::steps_csv(a));
      write_file(base + "_comm_matrix.csv",
                 dsouth::analysis::comm_matrix_csv(a));
      write_file(base + "_critical_path.csv",
                 dsouth::analysis::critical_path_csv(a));
      write_file(base + "_convergence.csv",
                 dsouth::analysis::convergence_csv(a));
    }
    if (format == "json" || format == "all") {
      write_file(out_prefix + "_" + slug(run.label) + ".json",
                 dsouth::analysis::to_json(a, opt));
    }
    if (check) {
      std::cout << "consistency checks for '" << run.label << "':\n";
      if (!run_checks(run, a)) all_ok = false;
      if (prof_record_path.has_value() &&
          !check_prof_vs_trace(run, prof_record)) {
        all_ok = false;
      }
      std::cout << "\n";
    }
  }

  // Structural prof-record rules run once per record entry, unfiltered —
  // the record is one document, its invariants hold run by run.
  for (const auto& pr : prof_record) {
    std::cout << "prof record checks for '" << pr.label << "':\n";
    if (!check_prof_record_run(pr)) all_ok = false;
    std::cout << "\n";
  }

  DSOUTH_CHECK_MSG(analyzed > 0, "no run label contains '" << run_filter
                                                           << "'");
  if (check) {
    std::cout << (all_ok ? "all consistency checks passed"
                         : "CONSISTENCY CHECKS FAILED")
              << " (" << analyzed << " run" << (analyzed == 1 ? "" : "s")
              << ")\n";
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const dsouth::util::CheckError& e) {
    std::cerr << "dsouth-analyze: " << e.what() << "\n";
    return 2;
  }
}
