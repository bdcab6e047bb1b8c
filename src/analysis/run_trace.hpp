#pragma once

/// \file run_trace.hpp
/// The analysis layer's view of one traced run: the deterministic event
/// stream plus the end-of-run metric totals, either taken straight from an
/// in-memory trace::TraceLog or read back from a JSON Lines capture file
/// (the `-trace foo.jsonl` output of the benches). Both construction paths
/// yield identical RunTrace contents for the same run, so every analyzer
/// report is a pure function of the deterministic trace fields — and
/// therefore byte-identical across execution backends.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hpp"

namespace dsouth::analysis {

/// One named metric with its per-rank end-of-run values.
struct MetricSeries {
  std::string name;
  trace::MetricKind kind = trace::MetricKind::kCounter;
  std::vector<double> per_rank;

  double total() const;
};

/// One traced run, ready for analysis.
struct RunTrace {
  std::string label;  ///< the bench's run label ("bone010p P=13 DS", …)
  int num_ranks = 0;
  int version = 0;  ///< JSONL schema version (0 when built from a TraceLog)
  std::uint64_t dropped_events = 0;  ///< ring overflows; 0 = complete trace
  std::vector<trace::Event> events;  ///< in seq order
  std::vector<MetricSeries> metrics;

  /// Metric lookup by exact name; nullptr when absent.
  const MetricSeries* find_metric(std::string_view name) const;
};

/// Adopt an in-memory trace log (no serialization round trip).
RunTrace from_trace_log(const trace::TraceLog& log, std::string label);

/// Parse a JSON Lines capture (possibly holding several runs — one header
/// line each, see docs/observability.md). Each non-blank line must be one
/// strict JSON object; its members may come in any order, a duplicate key
/// keeps its last value, and unknown keys are ignored. Unknown event kinds
/// or a header version this build does not know are rejected with
/// CheckError; events lacking optional fields (`peer`, `tag`, `t_wall`) get
/// the in-memory defaults, so parse(write_jsonl(log)) == from_trace_log(log)
/// field for field (minus the non-deterministic wall clock).
std::vector<RunTrace> parse_jsonl(std::string_view text);

/// parse_jsonl over a file's contents.
std::vector<RunTrace> read_jsonl_file(const std::string& path);

}  // namespace dsouth::analysis
