#pragma once

/// \file ledger.hpp
/// Outside-in host-time ledger for the benchmark's traced runs.
///
/// Every call the benchmark makes into a library layer is wrapped in a
/// Span named "<layer>.<call>" (e.g. "dist.send", "simmpi.fence"). Spans
/// nest; a span's self time is its duration minus the time of the spans
/// opened inside it, so the self times of all spans partition the covered
/// wall time exactly. Probes are replays the benchmark adds only to price
/// one layer (kernel sweeps on copied state, wire decodes of delivered
/// payloads): their time is kept apart and excluded from both the ledger's
/// wall time and its attributed time, so they never inflate coverage.

#include <time.h>

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's clock. By default it reads the CPU time of the process:
/// on a shared host the time the process waits for a core (the guest's own
/// run queue or the host's steal time) is not counted, so other tenants'
/// load does not show as a slower program. A single-threaded run's CPU
/// time equals its wall time on an idle machine. Workloads that run a
/// thread pool set `wall`, because their CPU time sums the pool's threads.
struct Clock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static inline bool wall = false;
  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(wall ? CLOCK_MONOTONIC : CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1000000000 +
                               static_cast<rep>(ts.tv_nsec)));
  }
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Ledger {
 public:
  /// Open the ledger window: wall time is measured from here to close().
  void open() {
    start_ = Clock::now();
    probe_s_ = 0.0;
  }
  /// Close the window; returns the ledger wall time (probes excluded).
  double close() {
    wall_s_ = seconds_since(start_) - probe_s_;
    return wall_s_;
  }

  void push(const char* name) { stack_.push_back({name, Clock::now(), 0.0}); }
  void pop() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = seconds_since(f.start);
    Entry& e = slot(spans_, f.name);
    e.self_s += dur - f.child_s;
    ++e.calls;
    if (!stack_.empty()) stack_.back().child_s += dur;
  }

  /// Time `fn()` as a probe: excluded from the wall and from coverage.
  template <typename Fn>
  double probe(const char* name, Fn&& fn) {
    const auto t0 = Clock::now();
    ++probe_depth_;
    fn();
    --probe_depth_;
    const double dur = seconds_since(t0);
    if (probe_depth_ == 0) {
      // Only the outermost probe leaves the wall; a probe opened inside a
      // span must not count as that span's time.
      probe_s_ += dur;
      if (!stack_.empty()) stack_.back().child_s += dur;
    }
    Entry& e = slot(probes_, name);
    e.self_s += dur;
    ++e.calls;
    return dur;
  }

  struct Entry {
    double self_s = 0.0;
    long long calls = 0;
  };

  /// Spans (or probes) aggregated by name.
  std::map<std::string, Entry> entries() const { return by_name(spans_); }
  std::map<std::string, Entry> probes() const { return by_name(probes_); }

  /// Self seconds of one span name (0 if never opened).
  double self(const std::string& name) const {
    return find(spans_, name).self_s;
  }
  double probe_time(const std::string& name) const {
    return find(probes_, name).self_s;
  }
  /// Self seconds summed over every span whose name starts with `prefix`.
  double self_prefix(const std::string& prefix) const {
    double s = 0.0;
    for (const auto& [name, e] : spans_) {
      if (std::strncmp(name, prefix.c_str(), prefix.size()) == 0) {
        s += e.self_s;
      }
    }
    return s;
  }
  double attributed() const { return self_prefix(""); }
  double wall() const { return wall_s_; }
  /// Probe seconds since open() (callers difference it around a call).
  double probe_total() const { return probe_s_; }

 private:
  struct Frame {
    const char* name;
    Clock::time_point start;
    double child_s;
  };
  // Span names are string literals: look them up by pointer first (the
  // hot path, a few dozen names), by content only on a miss.
  using Slots = std::vector<std::pair<const char*, Entry>>;
  static Entry& slot(Slots& slots, const char* name) {
    for (auto& [n, e] : slots) {
      if (n == name) return e;
    }
    for (auto& [n, e] : slots) {
      if (std::strcmp(n, name) == 0) return e;
    }
    slots.emplace_back(name, Entry{});
    return slots.back().second;
  }
  static Entry find(const Slots& slots, const std::string& name) {
    for (const auto& [n, e] : slots) {
      if (name == n) return e;
    }
    return {};
  }
  static std::map<std::string, Entry> by_name(const Slots& slots) {
    std::map<std::string, Entry> out;
    for (const auto& [n, e] : slots) {
      Entry& o = out[n];
      o.self_s += e.self_s;
      o.calls += e.calls;
    }
    return out;
  }

  Clock::time_point start_{};
  double probe_s_ = 0.0;
  int probe_depth_ = 0;
  double wall_s_ = 0.0;
  std::vector<Frame> stack_;
  Slots spans_;
  Slots probes_;
};

/// RAII span; a null ledger makes it a no-op (untraced code paths).
class Span {
 public:
  Span(Ledger* l, const char* name) : l_(l) {
    if (l_) l_->push(name);
  }
  ~Span() {
    if (l_) l_->pop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* l_;
};

}  // namespace perfbench
