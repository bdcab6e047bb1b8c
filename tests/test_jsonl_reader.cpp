/// Differential tests of the JSONL trace reader (analysis::parse_jsonl).
/// The reader pulls each line's members without building a JsonValue tree;
/// these tests hold it to the tree-based extraction it replaced, kept here
/// as a reference copy (old_parse_jsonl): on a real capture and on seeded
/// mutations of it — bit flips, truncations, line splices and duplications
/// — the reader must throw CheckError exactly when the reference does, and
/// otherwise return an identical RunTrace, field for field and bit for bit.
/// Hand-written lines pin the contract: any key order, last duplicate
/// wins, unknown keys (nested values included) parsed strictly and
/// ignored, type checks at resolution, errors naming the line.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/run_trace.hpp"
#include "dist/driver.hpp"
#include "elastic/elastic.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "trace/export.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dsouth::analysis {
namespace {

using util::CheckError;
using util::JsonValue;

// ---------------------------------------------------------------------------
// Reference: the tree-based extraction (parse_json + at/find per line).
// ---------------------------------------------------------------------------

trace::EventKind old_parse_kind(const std::string& name) {
  for (int k = 0; k < trace::kNumEventKinds; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    if (name == trace::event_kind_name(kind)) return kind;
  }
  DSOUTH_CHECK_MSG(false, "JSONL trace: unknown event kind '" << name << "'");
  return trace::EventKind::kPut;
}

trace::MetricKind old_parse_metric_kind(const std::string& name) {
  if (name == trace::metric_kind_name(trace::MetricKind::kCounter)) {
    return trace::MetricKind::kCounter;
  }
  if (name == trace::metric_kind_name(trace::MetricKind::kGauge)) {
    return trace::MetricKind::kGauge;
  }
  DSOUTH_CHECK_MSG(false, "JSONL trace: unknown metric kind '" << name << "'");
  return trace::MetricKind::kCounter;
}

template <typename T>
T old_narrow(const JsonValue& v) {
  const std::int64_t i = v.as_int();
  DSOUTH_CHECK(std::in_range<T>(i));
  return static_cast<T>(i);
}

std::vector<RunTrace> old_parse_jsonl(std::string_view text) {
  std::vector<RunTrace> runs;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
    std::string_view line = text.substr(pos, end - pos);
    pos = end + (eol == std::string_view::npos ? 0 : 1);
    ++line_no;
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') blank = false;
    }
    if (blank) continue;

    JsonValue v;
    try {
      v = util::parse_json(line);
    } catch (const CheckError& e) {
      DSOUTH_CHECK_MSG(false, "JSONL trace line " << line_no << ": "
                                                  << e.what());
    }
    const std::string& type = v.at("type").as_string();
    if (type == "header") {
      RunTrace run;
      run.version = old_narrow<int>(v.at("version"));
      DSOUTH_CHECK(run.version >= 1 && run.version <= 6);
      run.num_ranks = old_narrow<int>(v.at("num_ranks"));
      DSOUTH_CHECK(run.num_ranks > 0);
      run.dropped_events = old_narrow<std::uint64_t>(v.at("dropped_events"));
      if (const JsonValue* label = v.find("run")) {
        run.label = label->as_string();
      }
      runs.push_back(std::move(run));
      continue;
    }
    DSOUTH_CHECK(!runs.empty());
    RunTrace& run = runs.back();
    if (type == "event") {
      trace::Event e;
      e.kind = old_parse_kind(v.at("kind").as_string());
      e.seq = old_narrow<std::uint64_t>(v.at("seq"));
      e.epoch = old_narrow<std::uint64_t>(v.at("epoch"));
      e.rank = old_narrow<std::int32_t>(v.at("rank"));
      if (const JsonValue* peer = v.find("peer")) {
        e.peer = old_narrow<std::int32_t>(*peer);
      }
      if (const JsonValue* tag = v.find("tag")) {
        e.tag = old_narrow<std::int32_t>(*tag);
      }
      e.t_model = v.at("t_model").as_number();
      e.a0 = v.at("a0").as_number();
      e.a1 = v.at("a1").as_number();
      if (const JsonValue* wall = v.find("t_wall")) {
        e.t_wall = wall->as_number();
      }
      run.events.push_back(e);
    } else if (type == "metric") {
      MetricSeries m;
      m.name = v.at("name").as_string();
      m.kind = old_parse_metric_kind(v.at("metric_kind").as_string());
      const auto& slots = v.at("per_rank").as_array();
      DSOUTH_CHECK(slots.size() == static_cast<std::size_t>(run.num_ranks));
      for (const auto& s : slots) m.per_rank.push_back(s.as_number());
      run.metrics.push_back(std::move(m));
    } else {
      DSOUTH_CHECK_MSG(false, "unknown type '" << type << "'");
    }
  }
  for (const RunTrace& run : runs) {
    for (std::size_t i = 1; i < run.events.size(); ++i) {
      DSOUTH_CHECK(run.events[i - 1].seq < run.events[i].seq);
    }
  }
  return runs;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Empty when the two parses agree field for field; else the first
/// difference.
std::string diff_runs(const std::vector<RunTrace>& a,
                      const std::vector<RunTrace>& b) {
  if (a.size() != b.size()) return "run count";
  for (std::size_t r = 0; r < a.size(); ++r) {
    const RunTrace& x = a[r];
    const RunTrace& y = b[r];
    std::ostringstream at;
    at << "run " << r << ": ";
    if (x.label != y.label) return at.str() + "label";
    if (x.num_ranks != y.num_ranks) return at.str() + "num_ranks";
    if (x.version != y.version) return at.str() + "version";
    if (x.dropped_events != y.dropped_events) return at.str() + "dropped";
    if (x.events.size() != y.events.size()) return at.str() + "event count";
    for (std::size_t i = 0; i < x.events.size(); ++i) {
      const trace::Event& e = x.events[i];
      const trace::Event& f = y.events[i];
      if (e.kind != f.kind || e.seq != f.seq || e.epoch != f.epoch ||
          e.rank != f.rank || e.peer != f.peer || e.tag != f.tag ||
          !same_bits(e.t_model, f.t_model) || !same_bits(e.a0, f.a0) ||
          !same_bits(e.a1, f.a1) || !same_bits(e.t_wall, f.t_wall)) {
        return at.str() + "event " + std::to_string(i);
      }
    }
    if (x.metrics.size() != y.metrics.size()) return at.str() + "metrics";
    for (std::size_t i = 0; i < x.metrics.size(); ++i) {
      const MetricSeries& m = x.metrics[i];
      const MetricSeries& n = y.metrics[i];
      if (m.name != n.name || m.kind != n.kind ||
          m.per_rank.size() != n.per_rank.size()) {
        return at.str() + "metric " + std::to_string(i);
      }
      for (std::size_t k = 0; k < m.per_rank.size(); ++k) {
        if (!same_bits(m.per_rank[k], n.per_rank[k])) {
          return at.str() + "metric " + std::to_string(i) + " slot";
        }
      }
    }
  }
  return {};
}

enum class Outcome { kAccepted, kRejected };

/// Runs both readers on `text`; fails the test unless they agree.
Outcome expect_same_outcome(const std::string& text) {
  bool old_threw = false;
  bool new_threw = false;
  std::vector<RunTrace> old_runs;
  std::vector<RunTrace> new_runs;
  try {
    old_runs = old_parse_jsonl(text);
  } catch (const CheckError&) {
    old_threw = true;
  }
  try {
    new_runs = parse_jsonl(text);
  } catch (const CheckError&) {
    new_threw = true;
  }
  EXPECT_EQ(new_threw, old_threw) << "input:\n" << text.substr(0, 2000);
  if (!old_threw && !new_threw) {
    const std::string d = diff_runs(new_runs, old_runs);
    EXPECT_EQ(d, "") << "input:\n" << text.substr(0, 2000);
  }
  return old_threw ? Outcome::kRejected : Outcome::kAccepted;
}

// ---------------------------------------------------------------------------
// The base capture: one elastic run with a rank kill (elastic events,
// header version 6), fault injection, asynchronous delivery and node-aware
// routing, so every event kind appears; plus a plain bulk-synchronous run
// (version 2) after it in the same capture.
// ---------------------------------------------------------------------------

struct Problem {
  sparse::CsrMatrix a;
  std::vector<sparse::value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(sparse::index_t nx, sparse::index_t ranks,
                     std::uint64_t seed) {
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

const std::string& base_capture() {
  static const std::string text = [] {
    std::ostringstream os;
    {
      auto p = make_problem(10, 6, 91);
      dist::DistRunOptions opt;
      opt.max_parallel_steps = 14;
      opt.trace.enabled = true;
      opt.async = true;
      opt.ranks_per_node = 2;
      opt.faults.defaults.drop_probability = 0.05;
      opt.faults.defaults.duplicate_probability = 0.05;
      opt.faults.kills.push_back({3, 5});
      elastic::RecoveryOptions rec;
      rec.checkpoint_every = 4;
      const auto er = elastic::run_elastic(dist::DistMethod::kParallelSouthwell,
                                           p.a, p.part, p.b, p.x0, opt, rec);
      trace::TraceExportOptions eopt;
      eopt.run_label = "elastic \"faulted\" run";
      trace::write_jsonl(os, *er.run.trace_log, eopt);
    }
    {
      auto p = make_problem(6, 3, 92);
      dist::DistRunOptions opt;
      opt.max_parallel_steps = 4;
      opt.trace.enabled = true;
      const auto r = dist::run_distributed(dist::DistMethod::kDistributedSouthwell,
                                           p.a, p.part, p.b, p.x0, opt);
      trace::write_jsonl(os, *r.trace_log, {});
    }
    return os.str();
  }();
  return text;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol == std::string::npos ? text.size() : eol + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

TEST(JsonlReader, BaseCaptureCoversEveryEventKindAndVersion6) {
  const auto runs = parse_jsonl(base_capture());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].version, 6);
  EXPECT_EQ(runs[1].version, 2);
  std::vector<int> seen(trace::kNumEventKinds, 0);
  for (const auto& run : runs) {
    for (const auto& e : run.events) ++seen[static_cast<int>(e.kind)];
  }
  for (int k = 0; k < trace::kNumEventKinds; ++k) {
    EXPECT_GT(seen[k], 0) << trace::event_kind_name(
        static_cast<trace::EventKind>(k));
  }
  EXPECT_EQ(expect_same_outcome(base_capture()), Outcome::kAccepted);
}

// ---------------------------------------------------------------------------
// Seeded mutations. Each case mutates a window of the capture's lines (the
// window's run header put in front, so most windows still parse), which
// keeps every parse small; a few cases mutate the whole capture.
// ---------------------------------------------------------------------------

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  /// A window of consecutive lines, headed by the header of the run the
  /// window starts in.
  std::vector<std::string> window(const std::vector<std::string>& lines) {
    const std::size_t start = below(lines.size());
    const std::size_t len = 1 + below(24);
    std::vector<std::string> out;
    std::size_t h = start;
    while (h > 0 && lines[h].find("\"type\":\"header\"") == std::string::npos) {
      --h;
    }
    if (h != start) out.push_back(lines[h]);
    for (std::size_t i = start; i < lines.size() && i < start + len; ++i) {
      out.push_back(lines[i]);
    }
    return out;
  }

  /// One mutation of the text, picked at random.
  void mutate(std::string& text) {
    if (text.empty()) return;
    switch (below(9)) {
      case 0: {  // bit flips
        const std::size_t flips = 1 + below(3);
        for (std::size_t i = 0; i < flips; ++i) {
          text[below(text.size())] ^= static_cast<char>(1u << below(8));
        }
        break;
      }
      case 1: {  // a byte replaced by one that matters to the grammar
        static constexpr std::string_view kBytes = "\"\\{}[],:-+.eE0159 \t\r\nntf";
        text[below(text.size())] = kBytes[below(kBytes.size())];
        break;
      }
      case 2:  // truncation
        text.resize(below(text.size()));
        break;
      case 3: {  // line splice: part of one line into another line
        auto lines = split_lines(text);
        std::string& dst = lines[below(lines.size())];
        const std::string& src = lines[below(lines.size())];
        const std::size_t from = below(src.size() + 1);
        const std::string piece = src.substr(from, below(src.size() - from + 1));
        dst.insert(below(dst.size() + 1), piece);
        text = join_lines(lines);
        break;
      }
      case 4: {  // line duplication (or two lines swapped)
        auto lines = split_lines(text);
        const std::size_t i = below(lines.size());
        const std::size_t j = below(lines.size());
        if (below(2) == 0) {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(j),
                       lines[i]);
        } else {
          std::swap(lines[i], lines[j]);
        }
        text = join_lines(lines);
        break;
      }
      case 5: {  // a digit changed: mostly still a valid trace
        const std::size_t at = text.find_first_of("0123456789", below(text.size()));
        if (at != std::string::npos) {
          text[at] = static_cast<char>('0' + below(10));
        }
        break;
      }
      case 6:  // whitespace somewhere: valid between tokens only
        text.insert(below(text.size() + 1), 1, " \t\r"[below(3)]);
        break;
      case 7: {  // truncation at a line boundary
        const std::size_t nl = text.find('\n', below(text.size()));
        if (nl != std::string::npos) text.resize(nl + 1);
        break;
      }
      default: {  // two lines joined, or one cut in two
        const std::size_t at = below(text.size());
        const std::size_t nl = text.find('\n', at);
        if (below(2) == 0 && nl != std::string::npos) {
          text.erase(nl, 1);
        } else {
          text.insert(at, 1, '\n');
        }
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

TEST(JsonlReader, SeededMutationsMatchTheTreeReader) {
  const auto lines = split_lines(base_capture());
  Mutator mut(20261018);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int c = 0; c < 6000; ++c) {
    std::string text = join_lines(mut.window(lines));
    const std::size_t rounds = 1 + mut.below(2);
    for (std::size_t r = 0; r < rounds; ++r) mut.mutate(text);
    if (expect_same_outcome(text) == Outcome::kAccepted) {
      ++accepted;
    } else {
      ++rejected;
    }
    if (::testing::Test::HasFailure()) break;
  }
  for (int c = 0; c < 12; ++c) {
    std::string text = base_capture();
    mut.mutate(text);
    expect_same_outcome(text);
  }
  // Both outcomes must be common, or the comparison proves little.
  EXPECT_GT(accepted, 600u);
  EXPECT_GT(rejected, 600u);
}

// ---------------------------------------------------------------------------
// Hand-written lines.
// ---------------------------------------------------------------------------

const char* const kHeader =
    R"({"type":"header","version":6,"num_ranks":2,"events":1,"dropped_events":0,"run":"r"})";

std::string capture(const std::string& line) {
  std::string text = kHeader;
  text += '\n';
  text += line;
  text += '\n';
  return text;
}

TEST(JsonlReader, AcceptsAnyKeyOrderAndWhitespace) {
  const std::string text = capture(
      " {\"a1\" : 2.5 , \"t_model\":1e-6,\t\"rank\":1,\"peer\":0,"
      "\"epoch\":3,\"seq\":7,\"kind\":\"put\",\"tag\":4,\"a0\":1,"
      "\"type\":\"event\"}\r");
  ASSERT_EQ(expect_same_outcome(text), Outcome::kAccepted);
  const auto runs = parse_jsonl(text);
  ASSERT_EQ(runs[0].events.size(), 1u);
  const trace::Event& e = runs[0].events[0];
  EXPECT_EQ(e.kind, trace::EventKind::kPut);
  EXPECT_EQ(e.seq, 7u);
  EXPECT_EQ(e.epoch, 3u);
  EXPECT_EQ(e.rank, 1);
  EXPECT_EQ(e.peer, 0);
  EXPECT_EQ(e.tag, 4);
  EXPECT_EQ(e.t_model, 1e-6);
  EXPECT_EQ(e.a0, 1.0);
  EXPECT_EQ(e.a1, 2.5);
}

TEST(JsonlReader, LastDuplicateWinsWhateverTheEarlierType) {
  const std::string base =
      R"("type":"event","kind":"fence","epoch":0,"rank":-1,"t_model":0,"a0":0,"a1":0)";
  // An earlier value of the wrong type is overwritten, so it never fails.
  const std::string ok = capture("{\"seq\":\"x\"," + base + ",\"seq\":3}");
  ASSERT_EQ(expect_same_outcome(ok), Outcome::kAccepted);
  EXPECT_EQ(parse_jsonl(ok)[0].events[0].seq, 3u);
  const std::string ok2 =
      capture("{\"kind\":[1,{}]," + base + ",\"seq\":1,\"a0\":null,\"a0\":5}");
  ASSERT_EQ(expect_same_outcome(ok2), Outcome::kAccepted);
  EXPECT_EQ(parse_jsonl(ok2)[0].events[0].a0, 5.0);
  // The last value decides: a wrong type there fails.
  EXPECT_EQ(expect_same_outcome(capture("{\"seq\":3," + base + ",\"seq\":\"x\"}")),
            Outcome::kRejected);
  EXPECT_EQ(expect_same_outcome(capture("{\"seq\":1," + base + ",\"a1\":true}")),
            Outcome::kRejected);
  EXPECT_EQ(expect_same_outcome(capture("{\"seq\":1.5," + base + "}")),
            Outcome::kRejected);
}

TEST(JsonlReader, UnknownKeysAreParsedStrictlyAndIgnored) {
  const std::string base =
      R"("type":"event","kind":"relax","seq":1,"epoch":0,"rank":0,"t_model":0,"a0":1,"a1":2)";
  const std::string ok = capture(
      "{\"extra\":{\"nested\":[1,2,{\"deep\":null}],\"s\":\"\\u00e9\"},"
      "\"list\":[[],{}],\"version\":\"ignored on events\"," +
      base + ",\"z\":false}");
  ASSERT_EQ(expect_same_outcome(ok), Outcome::kAccepted);
  EXPECT_EQ(parse_jsonl(ok)[0].events[0].a1, 2.0);
  for (const char* bad_extra : {R"("extra":{"a":1,})", R"("extra":[1 2])",
                                R"("extra":"\x")", R"("extra":01)",
                                R"("extra":nul)"}) {
    EXPECT_EQ(expect_same_outcome(
                  capture(std::string("{") + bad_extra + "," + base + "}")),
              Outcome::kRejected)
        << bad_extra;
  }
}

TEST(JsonlReader, OverflowingNumbersReadAsNullAndFailResolution) {
  const std::string line =
      R"({"type":"event","kind":"relax","seq":1,"epoch":0,"rank":0,"t_model":1e400,"a0":1,"a1":2})";
  EXPECT_EQ(expect_same_outcome(capture(line)), Outcome::kRejected);
  const std::string tiny =
      R"({"type":"event","kind":"relax","seq":1,"epoch":0,"rank":0,"t_model":1e-400,"a0":5e-324,"a1":2.5e-308})";
  ASSERT_EQ(expect_same_outcome(capture(tiny)), Outcome::kAccepted);
  const auto e = parse_jsonl(capture(tiny))[0].events[0];
  EXPECT_TRUE(same_bits(e.t_model, 0.0));
  EXPECT_TRUE(same_bits(e.a0, 5e-324));
  EXPECT_TRUE(same_bits(e.a1, 2.5e-308));
}

// Integers the RunTrace fields cannot hold are rejected, never wrapped:
// each of these once read as a small valid value (6, 2, 2^64 - 1, 1).
TEST(JsonlReader, OutOfRangeIntegersAreRejected) {
  const std::string event_tail =
      R"(,"t_model":0,"a0":1,"a1":2})";
  const std::string event =
      R"({"type":"event","kind":"relax","seq":1,"epoch":0,"rank":)";
  const std::vector<std::string> bad = {
      R"({"type":"header","version":4294967302,"num_ranks":2,"dropped_events":0})",
      R"({"type":"header","version":6,"num_ranks":4294967298,"dropped_events":0})",
      R"({"type":"header","version":6,"num_ranks":2,"dropped_events":-1})",
      capture(event + "4294967297" + event_tail),
      capture(event + "-2147483649" + event_tail),
      capture(event + R"(0,"peer":2147483648)" + event_tail),
      capture(event + R"(0,"tag":-4294967295)" + event_tail),
      capture(R"({"type":"event","kind":"relax","seq":-1,"epoch":0,"rank":0)" +
              event_tail),
      capture(R"({"type":"event","kind":"relax","seq":1,"epoch":-3,"rank":0)" +
              event_tail),
  };
  for (const std::string& text : bad) {
    EXPECT_EQ(expect_same_outcome(text), Outcome::kRejected) << text;
    EXPECT_THROW(parse_jsonl(text), CheckError) << text;
  }
  // The int32 bounds themselves are in range.
  const std::string edge = capture(
      event + R"(-2147483648,"peer":2147483647,"tag":-2147483648)" +
      event_tail);
  ASSERT_EQ(expect_same_outcome(edge), Outcome::kAccepted);
  const trace::Event e = parse_jsonl(edge)[0].events[0];
  EXPECT_EQ(e.rank, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(e.peer, std::numeric_limits<std::int32_t>::max());
}

TEST(JsonlReader, SyntaxErrorsNameTheLine) {
  const std::string text = capture(R"({"type":"event",)");
  try {
    parse_jsonl(text);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("JSONL trace line 2:"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dsouth::analysis
