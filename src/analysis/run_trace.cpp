#include "analysis/run_trace.hpp"

#include <array>
#include <fstream>
#include <iterator>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace dsouth::analysis {

using util::JsonField;

double MetricSeries::total() const {
  double t = 0.0;
  for (double v : per_rank) t += v;
  return t;
}

const MetricSeries* RunTrace::find_metric(std::string_view name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

RunTrace from_trace_log(const trace::TraceLog& log, std::string label) {
  RunTrace run;
  run.label = std::move(label);
  run.num_ranks = log.num_ranks;
  run.dropped_events = log.dropped_events;
  run.events = log.events;
  const trace::MetricsRegistry& reg = log.metrics;
  run.metrics.reserve(reg.size());
  for (std::size_t i = 0; i < reg.size(); ++i) {
    const auto id = static_cast<trace::MetricId>(i);
    run.metrics.push_back(
        MetricSeries{reg.name(id), reg.kind(id), reg.per_rank(id)});
  }
  return run;
}

namespace {

/// The JSONL versions this reader understands. Version 1 traces (pre
/// "compute" events) still parse; the critical-path report then sees zero
/// flops and says so (RunTrace::version lets callers warn). Version 3
/// adds "fault" events (fault injection, src/faults); version 4 adds
/// "deliver" events (asynchronous delivery, simmpi::AsyncWindow); version
/// 5 adds "hop" events (node-aware routing, simmpi/node_topology.hpp);
/// version 6 adds "elastic" events (checkpoint/restart + repartitioning,
/// src/elastic) — all picked up through the shared event-kind table in
/// parse_kind.
constexpr int kMinVersion = 1;
constexpr int kMaxVersion = 6;

trace::EventKind parse_kind(std::string_view name) {
  for (int k = 0; k < trace::kNumEventKinds; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    if (name == trace::event_kind_name(kind)) return kind;
  }
  DSOUTH_CHECK_MSG(false, "JSONL trace: unknown event kind '" << name << "'");
  return trace::EventKind::kPut;  // unreachable
}

trace::MetricKind parse_metric_kind(std::string_view name) {
  if (name == trace::metric_kind_name(trace::MetricKind::kCounter)) {
    return trace::MetricKind::kCounter;
  }
  if (name == trace::metric_kind_name(trace::MetricKind::kGauge)) {
    return trace::MetricKind::kGauge;
  }
  DSOUTH_CHECK_MSG(false, "JSONL trace: unknown metric kind '" << name << "'");
  return trace::MetricKind::kCounter;  // unreachable
}

/// The members parse_jsonl resolves, event-line keys first and in the order
/// write_jsonl emits them, so the lookup scan usually ends early.
enum Field : std::size_t {
  kType,
  kKind,
  kSeq,
  kEpoch,
  kRank,
  kPeer,
  kTag,
  kTModel,
  kA0,
  kA1,
  kTWall,
  kVersion,
  kNumRanks,
  kDroppedEvents,
  kRun,
  kName,
  kMetricKind,
  kPerRank,
  kNumFields
};

constexpr std::array<std::string_view, kNumFields> kFieldNames = {
    "type", "kind", "seq", "epoch", "rank", "peer", "tag", "t_model", "a0",
    "a1", "t_wall", "version", "num_ranks", "dropped_events", "run", "name",
    "metric_kind", "per_rank"};

/// One JSONL line's members, read without a JsonValue tree. Each field
/// holds the last value its key had (duplicate keys: last wins); unknown
/// keys are parsed just as strictly, then dropped. Type checks happen when
/// a field is resolved, so the line's members may come in any order.
/// The integer in `f`, narrowed to T. A value T cannot hold (an int32
/// field past 2^31, a negative count or sequence number) is malformed and
/// throws rather than wrapping.
template <typename T>
T narrow_int(const JsonField& f, std::string_view key) {
  const std::int64_t v = f.as_int();
  DSOUTH_CHECK_MSG(std::in_range<T>(v), "JSONL trace: \"" << key
                                                           << "\" value " << v
                                                           << " out of range");
  return static_cast<T>(v);
}

class LineFields {
 public:
  void read(std::string_view line) {
    present_.fill(false);
    util::JsonObjectReader reader(line);
    std::string_view key;
    std::size_t hint = 0;
    while (reader.next(key)) {
      // Keys usually come in kFieldNames order: try the slot after the
      // last hit before scanning the table.
      std::size_t f = hint;
      if (f >= kNumFields || kFieldNames[f] != key) {
        f = 0;
        while (f < kNumFields && kFieldNames[f] != key) ++f;
      }
      hint = f + 1;
      if (f == kNumFields) {
        reader.value(ignored_);
        continue;
      }
      reader.value(fields_[f]);
      present_[f] = true;
    }
  }

  /// nullptr when the line has no such member.
  const JsonField* find(Field f) const {
    return present_[f] ? &fields_[f] : nullptr;
  }

  const JsonField& at(Field f) const {
    DSOUTH_CHECK_MSG(present_[f], "JSON object has no member '"
                                      << kFieldNames[f] << "'");
    return fields_[f];
  }

 private:
  std::array<JsonField, kNumFields> fields_;
  std::array<bool, kNumFields> present_{};
  JsonField ignored_;
};

}  // namespace

std::vector<RunTrace> parse_jsonl(std::string_view text) {
  std::vector<RunTrace> runs;
  LineFields v;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
    std::string_view line = text.substr(pos, end - pos);
    pos = end + (eol == std::string_view::npos ? 0 : 1);
    ++line_no;
    // Skip blank lines (a concatenation of captures may leave them).
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) continue;

    try {
      v.read(line);
    } catch (const util::CheckError& e) {
      DSOUTH_CHECK_MSG(false, "JSONL trace line " << line_no << ": "
                                                  << e.what());
    }
    const std::string_view type = v.at(kType).as_string();
    if (type == "header") {
      RunTrace run;
      run.version = narrow_int<int>(v.at(kVersion), "version");
      DSOUTH_CHECK_MSG(
          run.version >= kMinVersion && run.version <= kMaxVersion,
          "JSONL trace: unsupported schema version " << run.version);
      run.num_ranks = narrow_int<int>(v.at(kNumRanks), "num_ranks");
      DSOUTH_CHECK(run.num_ranks > 0);
      run.dropped_events =
          narrow_int<std::uint64_t>(v.at(kDroppedEvents), "dropped_events");
      if (const JsonField* label = v.find(kRun)) {
        run.label = label->as_string();
      }
      runs.push_back(std::move(run));
      continue;
    }
    DSOUTH_CHECK_MSG(!runs.empty(), "JSONL trace line "
                                        << line_no
                                        << ": '" << type
                                        << "' line before any header");
    RunTrace& run = runs.back();
    if (type == "event") {
      trace::Event e;
      e.kind = parse_kind(v.at(kKind).as_string());
      e.seq = narrow_int<std::uint64_t>(v.at(kSeq), "seq");
      e.epoch = narrow_int<std::uint64_t>(v.at(kEpoch), "epoch");
      e.rank = narrow_int<std::int32_t>(v.at(kRank), "rank");
      if (const JsonField* peer = v.find(kPeer)) {
        e.peer = narrow_int<std::int32_t>(*peer, "peer");
      }
      if (const JsonField* tag = v.find(kTag)) {
        e.tag = narrow_int<std::int32_t>(*tag, "tag");
      }
      e.t_model = v.at(kTModel).as_number();
      e.a0 = v.at(kA0).as_number();
      e.a1 = v.at(kA1).as_number();
      if (const JsonField* wall = v.find(kTWall)) {
        e.t_wall = wall->as_number();
      }
      run.events.push_back(e);
    } else if (type == "metric") {
      MetricSeries m;
      m.name = v.at(kName).as_string();
      m.kind = parse_metric_kind(v.at(kMetricKind).as_string());
      const auto& slots = v.at(kPerRank).as_array();
      DSOUTH_CHECK_MSG(
          slots.size() == static_cast<std::size_t>(run.num_ranks),
          "JSONL trace: metric '" << m.name << "' has " << slots.size()
                                  << " slots for " << run.num_ranks
                                  << " ranks");
      m.per_rank.reserve(slots.size());
      for (const auto& s : slots) m.per_rank.push_back(s.as_number());
      run.metrics.push_back(std::move(m));
    } else {
      DSOUTH_CHECK_MSG(false, "JSONL trace line " << line_no
                                                  << ": unknown type '"
                                                  << type << "'");
    }
  }
  for (const RunTrace& run : runs) {
    for (std::size_t i = 1; i < run.events.size(); ++i) {
      DSOUTH_CHECK_MSG(run.events[i - 1].seq < run.events[i].seq,
                       "JSONL trace: events out of seq order in run '"
                           << run.label << "'");
    }
  }
  return runs;
}

std::vector<RunTrace> read_jsonl_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DSOUTH_CHECK_MSG(in.good(), "cannot open trace file '" << path << "'");
  std::string text;
  const std::streamoff size = in.seekg(0, std::ios::end).tellg();
  if (size >= 0) {
    // One buffer sized from the file, filled by one read.
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(text.data(), static_cast<std::streamsize>(size));
    DSOUTH_CHECK_MSG(in.gcount() == static_cast<std::streamsize>(size),
                     "cannot read trace file '" << path << "'");
  } else {
    // A pipe has no size to take.
    in.clear();
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  return parse_jsonl(text);
}

}  // namespace dsouth::analysis
