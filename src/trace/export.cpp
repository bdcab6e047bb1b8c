#include "trace/export.hpp"

#include <charconv>
#include <ostream>
#include <string_view>

#include "util/error.hpp"
#include "util/json.hpp"

namespace dsouth::trace {

using util::append_json_escaped;
using util::append_json_number;

namespace {

/// Both writers append their output to one reused buffer and hand it to
/// the stream in chunks of about this size, not a `<<` per line.
constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

void flush(std::ostream& out, std::string& buf) {
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  buf.clear();
}

void flush_if_full(std::ostream& out, std::string& buf) {
  if (buf.size() >= kChunkBytes) flush(out, buf);
}

void append_key(std::string& out, std::string_view key) {
  out += '"';
  out += key;
  out += "\":";
}

void append_kv(std::string& out, std::string_view key, double v) {
  append_key(out, key);
  append_json_number(out, v);
}

template <typename Int>
void append_int_kv(std::string& out, std::string_view key, Int v) {
  append_key(out, key);
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void append_kv(std::string& out, std::string_view key, std::uint64_t v) {
  append_int_kv(out, key, v);
}

void append_kv(std::string& out, std::string_view key, int v) {
  append_int_kv(out, key, v);
}

/// A string value, JSON-escaped.
void append_kv(std::string& out, std::string_view key, std::string_view v) {
  append_key(out, key);
  out += '"';
  append_json_escaped(out, v);
  out += '"';
}

/// An event or metric kind name: a plain identifier, so it is emitted
/// as is (escaping would not change it).
void append_name_kv(std::string& out, std::string_view key, const char* name) {
  append_key(out, key);
  out += '"';
  out += name;
  out += '"';
}

}  // namespace

void write_jsonl(std::ostream& out, const TraceLog& log,
                 const TraceExportOptions& opt) {
  std::string buf;
  buf.reserve(kChunkBytes + 4096);

  // Version history: 1 = PR-2 schema (put/fence/relax/absorb);
  // 2 = adds "compute" events (flops charged via Runtime::add_flops) and
  // the "simmpi.flops" counter, consumed by the analysis layer;
  // 3 = adds "fault" events (fault injection, src/faults);
  // 4 = adds "deliver" events (asynchronous delivery, simmpi/delivery.hpp);
  // 5 = adds "hop" events (node-aware routing, simmpi/node_topology.hpp).
  // The header advertises the lowest version whose features the capture
  // actually uses, so traces of fault-free bulk-synchronous runs stay
  // byte-identical to the version-2 schema.
  bool has_fault_events = false;
  bool has_deliver_events = false;
  bool has_hop_events = false;
  bool has_elastic_events = false;
  for (const Event& e : log.events) {
    if (e.kind == EventKind::kFault) has_fault_events = true;
    if (e.kind == EventKind::kDeliver) has_deliver_events = true;
    if (e.kind == EventKind::kHop) has_hop_events = true;
    if (e.kind == EventKind::kElastic) has_elastic_events = true;
  }
  buf += has_elastic_events   ? "{\"type\":\"header\",\"version\":6,"
         : has_hop_events     ? "{\"type\":\"header\",\"version\":5,"
         : has_deliver_events ? "{\"type\":\"header\",\"version\":4,"
         : has_fault_events   ? "{\"type\":\"header\",\"version\":3,"
                              : "{\"type\":\"header\",\"version\":2,";
  append_kv(buf, "num_ranks", log.num_ranks);
  buf += ',';
  append_kv(buf, "events", static_cast<std::uint64_t>(log.events.size()));
  buf += ',';
  append_kv(buf, "dropped_events", log.dropped_events);
  if (!opt.run_label.empty()) {
    buf += ',';
    append_kv(buf, "run", opt.run_label);
  }
  buf += "}\n";

  for (const Event& e : log.events) {
    buf += "{\"type\":\"event\",";
    append_name_kv(buf, "kind", event_kind_name(e.kind));
    buf += ',';
    append_kv(buf, "seq", e.seq);
    buf += ',';
    append_kv(buf, "epoch", e.epoch);
    buf += ',';
    append_kv(buf, "rank", e.rank);
    if (e.peer >= 0) {
      buf += ',';
      append_kv(buf, "peer", e.peer);
    }
    if (e.tag >= 0) {
      buf += ',';
      append_kv(buf, "tag", e.tag);
    }
    buf += ',';
    append_kv(buf, "t_model", e.t_model);
    buf += ',';
    append_kv(buf, "a0", e.a0);
    buf += ',';
    append_kv(buf, "a1", e.a1);
    if (opt.include_wall_clock) {
      buf += ',';
      append_kv(buf, "t_wall", e.t_wall);
    }
    buf += "}\n";
    flush_if_full(out, buf);
  }

  const MetricsRegistry& m = log.metrics;
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto id = static_cast<MetricId>(i);
    buf += "{\"type\":\"metric\",";
    append_kv(buf, "name", m.name(id));
    buf += ',';
    append_name_kv(buf, "metric_kind", metric_kind_name(m.kind(id)));
    buf += ',';
    append_kv(buf, "total", m.total(id));
    buf += ",\"per_rank\":[";
    const auto& slots = m.per_rank(id);
    for (std::size_t r = 0; r < slots.size(); ++r) {
      if (r) buf += ',';
      append_json_number(buf, slots[r]);
    }
    buf += "]}\n";
    flush_if_full(out, buf);
  }
  flush(out, buf);
}

// ---------------------------------------------------------------------------
// Chrome trace_event
// ---------------------------------------------------------------------------

ChromeTraceWriter::ChromeTraceWriter(std::ostream& out) : out_(&out) {
  buf_.reserve(kChunkBytes + 4096);
  buf_ += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

ChromeTraceWriter::~ChromeTraceWriter() {
  if (!finished_) finish();
}

std::string& ChromeTraceWriter::begin_event() {
  if (any_event_) buf_ += ',';
  buf_ += '\n';
  any_event_ = true;
  return buf_;
}

void ChromeTraceWriter::end_event() { flush_if_full(*out_, buf_); }

void ChromeTraceWriter::add_run(const TraceLog& log,
                                const TraceExportOptions& opt) {
  DSOUTH_CHECK(!finished_);
  const int pid = next_pid_++;
  const int runtime_tid = log.num_ranks;  // synthetic lane for fences

  // Process / runtime-lane names so Perfetto labels the run.
  std::string& out = begin_event();
  out += "{\"name\":\"process_name\",\"ph\":\"M\",";
  append_kv(out, "pid", pid);
  out += ",\"args\":{";
  append_kv(out, "name",
            opt.run_label.empty() ? std::string_view("traced run")
                                  : std::string_view(opt.run_label));
  out += "}}";
  end_event();
  begin_event();
  out += "{\"name\":\"thread_name\",\"ph\":\"M\",";
  append_kv(out, "pid", pid);
  out += ',';
  append_kv(out, "tid", runtime_tid);
  out += ",\"args\":{\"name\":\"runtime (fences)\"}}";
  end_event();

  for (const Event& e : log.events) {
    const bool fence = e.kind == EventKind::kFence;
    begin_event();
    out += '{';
    append_name_kv(out, "name", event_kind_name(e.kind));
    // Instant events, thread-scoped for rank events and process-scoped for
    // fences (Chrome requires a scope for ph:"i").
    out += fence ? ",\"ph\":\"i\",\"s\":\"p\"," : ",\"ph\":\"i\",\"s\":\"t\",";
    append_kv(out, "pid", pid);
    out += ',';
    append_kv(out, "tid", fence ? runtime_tid : static_cast<int>(e.rank));
    out += ',';
    append_kv(out, "ts", e.t_model * 1e6);  // Chrome ts is microseconds
    out += ",\"args\":{";
    append_kv(out, "epoch", e.epoch);
    out += ',';
    append_kv(out, "seq", e.seq);
    switch (e.kind) {
      case EventKind::kPut:
        out += ',';
        append_kv(out, "dest", static_cast<int>(e.peer));
        out += ',';
        append_kv(out, "tag", static_cast<int>(e.tag));
        out += ',';
        append_kv(out, "payload_doubles", e.a0);
        out += ',';
        append_kv(out, "bytes", e.a1);
        break;
      case EventKind::kFence:
        out += ',';
        append_kv(out, "epoch_seconds", e.a0);
        out += ',';
        append_kv(out, "epoch_msgs", e.a1);
        break;
      case EventKind::kRelax:
        out += ',';
        append_kv(out, "rows", e.a0);
        out += ',';
        append_kv(out, "new_norm2", e.a1);
        break;
      case EventKind::kAbsorb:
        out += ',';
        append_kv(out, "msgs", e.a0);
        out += ',';
        append_kv(out, "payload_doubles", e.a1);
        break;
      case EventKind::kCompute:
        out += ',';
        append_kv(out, "flops", e.a0);
        break;
      case EventKind::kFault:
        out += ',';
        append_kv(out, "dest", static_cast<int>(e.peer));
        out += ',';
        append_kv(out, "action", static_cast<int>(e.tag));
        out += ',';
        append_kv(out, "msg_seq", e.a0);
        out += ',';
        append_kv(out, "detail", e.a1);
        break;
      case EventKind::kDeliver:
        out += ',';
        append_kv(out, "src", static_cast<int>(e.peer));
        out += ',';
        append_kv(out, "tag", static_cast<int>(e.tag));
        out += ',';
        append_kv(out, "staleness", e.a0);
        out += ',';
        append_kv(out, "payload_doubles", e.a1);
        break;
      case EventKind::kHop:
        out += ',';
        append_kv(out, "dest", static_cast<int>(e.peer));
        out += ',';
        append_kv(out, "hop", static_cast<int>(e.tag));
        out += ',';
        append_kv(out, "bytes", e.a0);
        out += ',';
        append_kv(out, "records", e.a1);
        break;
      case EventKind::kElastic:
        out += ',';
        append_kv(out, "action", static_cast<int>(e.tag));
        out += ',';
        append_kv(out, "detail0", e.a0);
        out += ',';
        append_kv(out, "detail1", e.a1);
        break;
    }
    if (opt.include_wall_clock) {
      out += ',';
      append_kv(out, "wall", e.t_wall);
    }
    out += "}}";
    end_event();

    // A counter track of per-epoch message volume — the ⟨m⟩ decay the
    // paper's argument is about, visible directly in Perfetto.
    if (fence) {
      begin_event();
      out += "{\"name\":\"epoch messages\",\"ph\":\"C\",";
      append_kv(out, "pid", pid);
      out += ',';
      append_kv(out, "ts", e.t_model * 1e6);
      out += ",\"args\":{";
      append_kv(out, "msgs", e.a1);
      out += "}}";
      end_event();
    }
  }

  // Final metric totals as one summary event at the end of the run.
  const MetricsRegistry& m = log.metrics;
  if (m.size() > 0) {
    const double ts_end =
        log.events.empty() ? 0.0 : log.events.back().t_model * 1e6;
    begin_event();
    out += "{\"name\":\"metrics\",\"ph\":\"i\",\"s\":\"p\",";
    append_kv(out, "pid", pid);
    out += ',';
    append_kv(out, "tid", runtime_tid);
    out += ',';
    append_kv(out, "ts", ts_end);
    out += ",\"args\":{";
    for (std::size_t i = 0; i < m.size(); ++i) {
      const auto id = static_cast<MetricId>(i);
      if (i) out += ',';
      out += '"';
      append_json_escaped(out, m.name(id));
      out += "\":";
      append_json_number(out, m.total(id));
    }
    out += "}}";
    end_event();
  }
}

void ChromeTraceWriter::add_thread_name(int pid, int tid,
                                        const std::string& name) {
  DSOUTH_CHECK(!finished_);
  std::string& out = begin_event();
  out += "{\"name\":\"thread_name\",\"ph\":\"M\",";
  append_kv(out, "pid", pid);
  out += ',';
  append_kv(out, "tid", tid);
  out += ",\"args\":{";
  append_kv(out, "name", name);
  out += "}}";
  end_event();
}

void ChromeTraceWriter::add_span(int pid, int tid, const std::string& name,
                                 double ts_us, double dur_us) {
  DSOUTH_CHECK(!finished_);
  std::string& out = begin_event();
  out += '{';
  append_kv(out, "name", name);
  out += ",\"ph\":\"X\",";
  append_kv(out, "pid", pid);
  out += ',';
  append_kv(out, "tid", tid);
  out += ',';
  append_kv(out, "ts", ts_us);
  out += ',';
  append_kv(out, "dur", dur_us);
  out += '}';
  end_event();
}

void ChromeTraceWriter::finish() {
  DSOUTH_CHECK(!finished_);
  buf_ += "\n]}\n";
  flush(*out_, buf_);
  finished_ = true;
}

void write_chrome_trace(std::ostream& out, const TraceLog& log,
                        const TraceExportOptions& opt) {
  ChromeTraceWriter writer(out);
  writer.add_run(log, opt);
  writer.finish();
}

}  // namespace dsouth::trace
