#pragma once

/// \file export.hpp
/// Serializers for TraceLog: JSON Lines for scripting (jq/pandas) and
/// Chrome trace_event JSON for chrome://tracing / Perfetto. The schema is
/// documented in docs/observability.md.
///
/// Determinism: with default options both formats are a pure function of
/// the deterministic TraceLog fields, so two runs that are bit-identical
/// in simulation produce byte-identical files — the trace determinism
/// tests compare exporter output across execution backends directly.
/// `include_wall_clock` opts into the one non-deterministic field.

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace dsouth::trace {

struct TraceExportOptions {
  /// Emit the host wall-clock timestamp per event ("t_wall" / args.wall).
  /// Off by default: it is the only non-deterministic Event field.
  bool include_wall_clock = false;
  /// Free-form run label carried in the JSONL header line and used as the
  /// Chrome process name (e.g. "DS P=32 bone010p").
  std::string run_label;
};

/// JSON Lines: one header object, one object per event (in seq order), one
/// object per metric. See docs/observability.md for the field tables.
void write_jsonl(std::ostream& out, const TraceLog& log,
                 const TraceExportOptions& opt = {});

/// Incremental writer for Chrome trace_event JSON. Each add_run() becomes
/// one Chrome "process" (pid), with simulated ranks as threads (tid) and
/// the fence/runtime lane as tid = num_ranks; `ts` is modeled time in
/// microseconds. finish() closes the JSON document — the file is invalid
/// until then.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& out);
  ~ChromeTraceWriter();  ///< calls finish() if the caller forgot

  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  void add_run(const TraceLog& log, const TraceExportOptions& opt = {});

  /// Pid of the most recent add_run (-1 before the first). Lets callers
  /// interleave extra tracks into that run's process — the bench harness
  /// uses this to lay host-profiler spans alongside the modeled timeline.
  int last_pid() const { return next_pid_ - 1; }

  /// Metadata event naming thread `tid` of process `pid` (Perfetto track
  /// label). Names are JSON-escaped.
  void add_thread_name(int pid, int tid, const std::string& name);

  /// One complete ("ph":"X") span on (pid, tid): `ts_us`/`dur_us` are in
  /// Chrome's microsecond unit, whatever clock the caller attributes them
  /// to. Names are JSON-escaped.
  void add_span(int pid, int tid, const std::string& name, double ts_us,
                double dur_us);

  void finish();

 private:
  /// Starts the next trace event in buf_ (after its separator) and returns
  /// buf_ for the caller to append the event object to.
  std::string& begin_event();
  /// Writes buf_ out once it holds a chunk's worth of events.
  void end_event();

  std::ostream* out_;
  std::string buf_;
  int next_pid_ = 0;
  bool any_event_ = false;
  bool finished_ = false;
};

/// One-run convenience wrapper around ChromeTraceWriter.
void write_chrome_trace(std::ostream& out, const TraceLog& log,
                        const TraceExportOptions& opt = {});

}  // namespace dsouth::trace
