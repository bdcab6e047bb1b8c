#pragma once

/// \file trace.hpp
/// Deterministic structured event tracer for the simulated runtime and the
/// distributed solvers (docs/observability.md).
///
/// Design: each rank records events into its *own* bounded ring lane while
/// an epoch is in flight — the same one-thread-per-rank discipline the
/// simmpi Runtime uses for staging lanes, so recording never contends and
/// never perturbs the simulation. At every fence the lanes are merged into
/// the global event stream in (source rank, record order) order — exactly
/// the order the Runtime merges staged puts — which makes the merged stream
/// **bit-identical across execution backends and thread counts**. The only
/// non-deterministic field is the optional wall-clock timestamp, which the
/// exporters omit by default (export.hpp).
///
/// Overhead contract: tracing is attached by pointer
/// (Runtime::set_tracer); with no tracer attached every hook is an inlined
/// null-pointer test and the simulation's results, CommStats, and modeled
/// time are byte-identical to a build that never heard of tracing. With a
/// tracer attached, recording is an append to a preallocated-on-demand
/// per-rank ring (drop-oldest beyond `ring_capacity`, with a drop count).

#include <cstdint>
#include <vector>

#include "trace/metrics.hpp"

namespace dsouth::trace {

/// What happened. Solver-level kinds (relax/absorb) are recorded through
/// RankContext; runtime-level kinds (put/fence) by the Runtime itself.
enum class EventKind : std::uint8_t {
  kPut = 0,     ///< one-sided put staged (a0 = payload doubles, a1 = bytes)
  kFence = 1,   ///< epoch closed (a0 = epoch model seconds, a1 = epoch msgs)
  kRelax = 2,   ///< a rank relaxed its subdomain (a0 = rows, a1 = new ‖r‖²)
  kAbsorb = 3,  ///< a rank drained its window (a0 = msgs, a1 = payload dbls)
  /// Local computation charged to the machine model (a0 = flops, a1 = 0),
  /// recorded by Runtime::add_flops. Together with the put events this lets
  /// the analysis layer rebuild every per-rank epoch cost term of the α–β–γ
  /// model from the trace alone (src/analysis).
  kCompute = 4,
  /// A fault-injection action applied to a staged message at the fence
  /// (src/faults, docs/resilience.md), recorded by the Runtime into the
  /// *source* rank's lane. `peer` = destination, `tag` = action code
  /// (0 drop, 1 duplicate, 2 reorder, 3 corrupt, 4 truncate, 5 stall),
  /// a0 = the message's per-source send seq, a1 = action detail (extra
  /// epochs for reorder/stall, flipped-bit index for corrupt, delivered
  /// length for truncate, 0 otherwise).
  kFault = 5,
  /// A message matured into a destination window under an async window
  /// (simmpi::AsyncWindow, simmpi/runtime.hpp), recorded by the Runtime into
  /// the *destination* rank's lane at the delivering fence. `peer` =
  /// source rank, `tag` = the message's simmpi::MsgTag as int, a0 =
  /// staleness (epochs between staging and delivery), a1 = payload
  /// doubles. Bulk-synchronous runs record none of these, keeping their
  /// traces byte-identical to pre-async builds.
  kDeliver = 6,
  /// One physical transfer under a node topology (simmpi/node_topology.hpp,
  /// DESIGN.md §13), recorded by the Runtime at the fence into the *paying*
  /// rank's lane. `peer` = physical destination rank, `tag` = hop kind
  /// (0 intra-node direct, 1 source → leader relay, 2 leader → leader
  /// inter-node, 3 leader → destination relay, 4 inter-node direct),
  /// a0 = modeled bytes of the hop, a1 = logical wire records it carries.
  /// Tier: tags 2 and 4 are inter-node, the rest intra-node. Topology-free
  /// runs record none of these, keeping their traces byte-identical to
  /// pre-node-aware builds.
  kHop = 7,
  /// An elastic checkpoint/recovery action (src/elastic, docs/resilience.md
  /// "Permanent failure and recovery"), recorded by the elastic driver into
  /// rank 0's lane at the step boundary where it acted. `tag` = action code
  /// (0 checkpoint taken, 1 permanent rank death detected, 2 state restored
  /// from checkpoint, 3 repartition applied), a0/a1 = action detail:
  /// checkpoint → bytes encoded / step, kill → dead rank / kill epoch,
  /// restore → restored step / restored epoch, repartition → dead rank /
  /// rows redistributed. Fault-free runs record none of these, keeping
  /// their traces byte-identical to pre-elastic builds.
  kElastic = 8,
};
inline constexpr int kNumEventKinds = 9;

/// Hop kinds carried in a kHop event's tag field.
inline constexpr int kHopIntraDirect = 0;  ///< same-node message
inline constexpr int kHopRelayUp = 1;      ///< source -> its node leader
inline constexpr int kHopInterLeader = 2;  ///< leader -> leader (aggregated)
inline constexpr int kHopRelayDown = 3;    ///< leader -> destination rank
inline constexpr int kHopInterDirect = 4;  ///< cross-node, routing off

/// True when a hop kind crosses the node boundary (pays inter-node α/β).
inline bool hop_is_inter(int hop_tag) {
  return hop_tag == kHopInterLeader || hop_tag == kHopInterDirect;
}

/// Returns "put"/"fence"/"relax"/"absorb"/"compute"/"fault"/"deliver"/"hop".
const char* event_kind_name(EventKind kind);

/// One trace record. All fields except `t_wall` are deterministic.
struct Event {
  EventKind kind = EventKind::kPut;
  std::int32_t rank = -1;  ///< recording rank; -1 for runtime-wide (fence)
  std::int32_t peer = -1;  ///< put: destination rank; otherwise -1
  std::int32_t tag = -1;   ///< put: simmpi::MsgTag as int; otherwise -1
  std::uint64_t epoch = 0;  ///< epoch in flight when recorded
  std::uint64_t seq = 0;    ///< global order, assigned at the fence merge
  double a0 = 0.0;          ///< kind-specific (see EventKind)
  double a1 = 0.0;          ///< kind-specific (see EventKind)
  double t_model = 0.0;  ///< modeled seconds at record time (deterministic)
  double t_wall = 0.0;   ///< host seconds since tracer start (NOT determ.)
};

/// Tracer knobs. `enabled` is consumed by the callers that own the tracer's
/// lifetime (dist::DistRunOptions, the benches' -trace flag); a constructed
/// Tracer is always live.
struct TraceOptions {
  bool enabled = false;
  /// Per-rank ring lane capacity (events held between two fences). Lanes
  /// drain at every fence, so this only bounds pathological epochs; drops
  /// are counted, deterministic, and reported in the export header.
  std::size_t ring_capacity = 4096;
  /// Stamp events with host wall-clock seconds. Recording is cheap but the
  /// values are non-deterministic; exporters omit them unless asked.
  bool record_wall_clock = true;
};

/// The merged result of a traced run (what DistRunResult carries and the
/// exporters consume).
struct TraceLog {
  int num_ranks = 0;
  std::vector<Event> events;  ///< fence-merged, globally ordered by `seq`
  MetricsRegistry metrics;    ///< final per-rank counter/gauge values
  std::uint64_t dropped_events = 0;  ///< ring overflows (0 in healthy runs)

  explicit TraceLog(int ranks) : num_ranks(ranks), metrics(ranks) {}
};

/// Per-rank ring-buffered event recorder with a deterministic fence merge.
/// Thread-safety contract (mirrors Runtime's): during an epoch at most one
/// thread records for a given rank; distinct ranks may record concurrently.
/// end_epoch()/flush() are single-caller, between epochs.
class Tracer {
 public:
  explicit Tracer(int num_ranks, TraceOptions opt = {});

  int num_ranks() const { return num_ranks_; }
  const TraceOptions& options() const { return opt_; }

  /// The metrics registry solvers and the runtime register into.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Record an event into `rank`'s lane. `epoch` and `t_model` come from
  /// the runtime (they are epoch-stable, hence safe to read mid-epoch).
  void record(int rank, EventKind kind, int peer, int tag, double a0,
              double a1, std::uint64_t epoch, double t_model);

  /// Merge all rank lanes into the global stream in (rank, record order)
  /// order, then append the fence event itself. Called by Runtime::fence().
  void end_epoch(std::uint64_t closed_epoch, double t_model_after,
                 double epoch_seconds, std::uint64_t epoch_msgs);

  /// Merge any events still sitting in rank lanes (the absorb phase after
  /// the final fence records there). Call once, at end of run.
  void flush();

  /// Events merged so far (valid between epochs).
  const std::vector<Event>& events() const { return merged_; }
  std::uint64_t dropped_events() const { return dropped_; }

  /// Move the merged stream + metrics out into a TraceLog.
  TraceLog take_log();

 private:
  /// Drop-oldest ring of events; storage grows on demand up to capacity so
  /// idle ranks cost nothing.
  struct Lane {
    std::vector<Event> buf;
    std::size_t head = 0;   // index of oldest element
    std::size_t count = 0;  // live elements
    std::uint64_t dropped = 0;
  };

  void merge_lanes();
  double wall_now() const;

  int num_ranks_;
  TraceOptions opt_;
  MetricsRegistry metrics_;
  std::vector<Lane> lanes_;
  std::vector<Event> merged_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t wall_t0_ns_ = 0;  // steady_clock at construction
};

}  // namespace dsouth::trace
