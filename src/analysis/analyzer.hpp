#pragma once

/// \file analyzer.hpp
/// Trace analysis: turns a RunTrace (the deterministic event stream of one
/// run) into the reports the paper's communication-cost argument is made
/// of — who computed, who talked to whom, which α–β–γ term paid for each
/// superstep, and how the residual fell against modeled time. Every report
/// is a pure function of (RunTrace, MachineModel), so reports — like the
/// traces they come from — are bit-identical across execution backends.
///
/// Epoch accounting mirrors the runtime exactly (simmpi/runtime.cpp):
/// events carry the epoch index in flight when they were recorded, so
/// summing compute/put events per (rank, epoch) in stream order reproduces
/// the runtime's per-epoch accumulators addend for addend — which is what
/// lets the critical-path report recompute every fence's modeled seconds
/// bit-exactly (`CriticalPathReport::model_matches`).

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/run_trace.hpp"
#include "simmpi/machine_model.hpp"
#include "simmpi/stats.hpp"

namespace dsouth::analysis {

// ---------------------------------------------------------------------------
// (a) Per-rank timeline and load imbalance
// ---------------------------------------------------------------------------

struct TimelineReport {
  /// Per-rank totals over all fenced epochs. Modeled seconds split the way
  /// the machine model charges them: compute = flops·c_flop, send = msgs·α
  /// + bytes·β (together the rank's "busy" cost), wait = the rest of each
  /// epoch's duration (straggler gap plus the epoch's γ/σ share).
  struct Rank {
    double compute_seconds = 0.0;
    double send_seconds = 0.0;
    double wait_seconds = 0.0;
    std::uint64_t relax_phases = 0;
    std::uint64_t rows_relaxed = 0;
    std::uint64_t absorb_phases = 0;
    std::uint64_t absorbed_msgs = 0;
    std::uint64_t msgs_sent = 0;

    double busy_seconds() const { return compute_seconds + send_seconds; }
  };

  /// Per-epoch load balance: max and mean of the per-rank busy cost, and
  /// who the straggler (max) rank was.
  struct Step {
    std::uint64_t epoch = 0;
    double epoch_seconds = 0.0;  ///< as recorded by the fence event
    double max_cost = 0.0;
    double mean_cost = 0.0;
    int straggler = -1;

    /// max/mean busy cost; 1 = perfectly balanced. An all-idle epoch has
    /// no meaningful ratio and reports 1.
    double imbalance() const {
      return mean_cost > 0.0 ? max_cost / mean_cost : 1.0;
    }
  };

  int num_ranks = 0;
  std::vector<Rank> ranks;
  std::vector<Step> steps;
  double total_model_seconds = 0.0;  ///< Σ epoch_seconds
  double max_imbalance = 1.0;        ///< max over steps
  double mean_imbalance = 1.0;       ///< mean over steps
};

TimelineReport analyze_timeline(const RunTrace& run,
                                const simmpi::MachineModel& model);

// ---------------------------------------------------------------------------
// (b) P×P communication matrix
// ---------------------------------------------------------------------------

struct CommMatrixReport {
  int num_ranks = 0;

  /// One cell of the conceptual P×P matrix. The report stores only the
  /// *touched* cells: DS exchanges with graph neighbors, so the matrix has
  /// O(P) nonzeros while the dense form costs P² to allocate and scan —
  /// superlinear in P for the host (bench/scaling measured ~×33 analysis
  /// time and ~P² bytes going P 16→256 with the dense build).
  struct Pair {
    int src = -1;
    int dst = -1;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    /// Per-tag message counts (solve / residual / other — Table 3's
    /// split); they partition `msgs`.
    std::array<std::uint64_t, simmpi::kNumTags> msgs_by_tag{};
  };
  /// Every communicating pair, sorted (src, dst) ascending — the same
  /// order a row-major dense scan that skips zeros would visit.
  std::vector<Pair> pairs;

  std::uint64_t total_msgs = 0;
  std::uint64_t total_bytes = 0;
  std::array<std::uint64_t, simmpi::kNumTags> total_by_tag{};

  /// The same pairs ranked by message count (ties: bytes, then
  /// (src, dst)), descending.
  std::vector<Pair> hot_pairs;

  /// Cell (src, dst), or null when the pair never communicated.
  const Pair* find(int src, int dst) const;

  /// The paper's §4.3 metric, total msgs / P — equals CommStats::comm_cost
  /// exactly when the trace is drop-free.
  double comm_cost() const;
  /// Per-tag comm cost (Table 3 columns).
  double comm_cost(simmpi::MsgTag tag) const;
};

CommMatrixReport analyze_comm_matrix(const RunTrace& run);

// ---------------------------------------------------------------------------
// (c) Critical-path attribution under the α–β–γ model
// ---------------------------------------------------------------------------

/// The places an epoch's modeled seconds can go:
/// T_epoch = max_p(flops_p·c + msgs_p·α + bytes_p·β) + γ·msgs/P + σ.
/// Node-aware (version-5) traces charge per physical hop on a two-tier
/// network instead (MachineModel::rank_cost_tiered): the latency/bandwidth
/// terms then cover the straggler's *inter-node* hops and the two intra
/// terms its intra-node hops (zero for single-level traces, so the first
/// five terms keep their meaning everywhere).
enum class CostTerm : int {
  kCompute = 0,        ///< straggler's flops·c_flop
  kLatency = 1,        ///< straggler's (inter) msgs·α
  kBandwidth = 2,      ///< straggler's (inter) bytes·β
  kNetwork = 3,        ///< γ·(epoch msgs)/P
  kSync = 4,           ///< σ
  kLatencyIntra = 5,   ///< straggler's intra-node msgs·α_intra (tiered only)
  kBandwidthIntra = 6, ///< straggler's intra-node bytes·β_intra (tiered only)
};
inline constexpr int kNumCostTerms = 7;
/// Terms live in a single-level (non-tiered) trace — the first five. The
/// renderers emit only these for such traces, keeping their CSV/JSON
/// byte-identical to pre-node-aware builds.
inline constexpr int kNumFlatCostTerms = 5;

/// "compute"/"latency"/"bandwidth"/"network"/"sync"/"latency_intra"/
/// "bandwidth_intra".
const char* cost_term_name(CostTerm term);

struct CriticalPathReport {
  struct Step {
    std::uint64_t epoch = 0;
    int straggler = -1;  ///< argmax rank (lowest rank on ties, like fence())
    /// Seconds by term; terms[0..2] are the straggler's, [3..4] epoch-wide.
    std::array<double, kNumCostTerms> terms{};
    double recorded_seconds = 0.0;  ///< fence event a0
    double modeled_seconds = 0.0;   ///< recomputed from events
    CostTerm dominant = CostTerm::kSync;
    /// Non-fence delivery (version-4 "deliver" events): messages that
    /// matured at THIS fence after an event-driven latency draw, and the
    /// worst staleness among them. The α/β cost of those messages was
    /// charged in their send epoch (above), so an epoch can be network-
    /// dominated by traffic whose data only takes effect here — these two
    /// fields are what lets the attribution say so. Zero for
    /// bulk-synchronous traces.
    std::uint64_t async_delivered = 0;
    std::uint64_t async_staleness_max = 0;
  };

  int num_ranks = 0;
  std::vector<Step> steps;
  std::array<double, kNumCostTerms> total_seconds_by_term{};
  std::array<std::uint64_t, kNumCostTerms> epochs_dominated{};
  std::vector<std::uint64_t> straggler_epochs;  ///< per rank
  double total_recorded_seconds = 0.0;
  double total_modeled_seconds = 0.0;
  /// True when every epoch's recomputed seconds equal the fence record
  /// bit-for-bit — the analyzer's proof that it reconstructed the machine
  /// model's accounting exactly. Drop-free version-2 traces must match,
  /// and so must node-aware version-5 traces: hop tallies are integers,
  /// so the tiered rebuild is order-independent and lands on the
  /// runtime's doubles addend for addend.
  bool model_matches = false;
  /// True when the trace carries hop events: the rebuild charged
  /// rank_cost_tiered from physical hops rather than rank_cost from puts,
  /// and the two intra CostTerms are live.
  bool tiered = false;
};

CriticalPathReport analyze_critical_path(const RunTrace& run,
                                         const simmpi::MachineModel& model);

// ---------------------------------------------------------------------------
// (d) Convergence diagnostics
// ---------------------------------------------------------------------------

struct ConvergenceReport {
  /// One point per fenced epoch. The residual estimate is the trace's view:
  /// √(Σ_p last ‖r_p‖²) over each rank's most recent relax event — exactly
  /// the quantity Distributed Southwell itself tracks. Ranks that have not
  /// relaxed yet contribute 0 (see `ranks_reporting`).
  struct Point {
    std::uint64_t epoch = 0;
    double t_model = 0.0;  ///< cumulative modeled seconds after the fence
    double residual_estimate = 0.0;
    int ranks_reporting = 0;   ///< ranks with ≥1 relax event so far
    std::uint64_t relax_events = 0;  ///< in this epoch
    std::uint64_t msgs = 0;          ///< in this epoch (fence record)
  };

  /// A maximal run of consecutive epochs in which no rank relaxed — pure
  /// communication/synchronization, the stalls the ds.* counters explain.
  struct Stall {
    std::uint64_t first_epoch = 0;
    std::uint64_t last_epoch = 0;
    std::uint64_t epochs() const { return last_epoch - first_epoch + 1; }
  };

  int num_ranks = 0;
  std::vector<Point> points;
  std::vector<Stall> stalls;
  std::uint64_t stalled_epochs = 0;

  /// Distributed Southwell deferral diagnostics, from the ds.* counters
  /// (absent for other methods).
  std::optional<double> ds_corrections_sent;  ///< total over ranks
  std::optional<double> ds_deferred_sends;    ///< total over ranks
  /// Rank with the most deferred sends (set iff ds_deferred_sends > 0).
  std::optional<int> max_deferral_rank;
};

ConvergenceReport analyze_convergence(const RunTrace& run);

// ---------------------------------------------------------------------------
// (e) Fault injection (src/faults)
// ---------------------------------------------------------------------------

/// Tally of the version-3 "fault" events the runtime records when a
/// FaultSchedule is attached (trace.hpp: peer = destination, tag = action
/// code, a0 = message seq, a1 = action detail). Empty/zero for fault-free
/// traces — the renderers emit a faults section only when any() is true.
struct FaultReport {
  /// Action codes, exactly as the runtime emits them.
  enum Action : int {
    kDrop = 0,
    kDuplicate = 1,
    kReorder = 2,
    kCorrupt = 3,
    kTruncate = 4,
    kStall = 5,
  };
  static constexpr int kNumActions = 6;
  static const char* action_name(int action);

  std::array<std::uint64_t, kNumActions> by_action{};
  /// Faults per source rank (the rank whose outgoing message was hit).
  std::vector<std::uint64_t> by_source;
  std::uint64_t total = 0;

  bool any() const { return total > 0; }

  /// The runtime's simmpi.faults_* metric totals, when the trace carries
  /// them (cross-checked against the event tallies by `dsouth-analyze
  /// -check`; faults_corrupted counts corrupt + truncate actions).
  std::optional<double> metric_dropped;
  std::optional<double> metric_duplicated;
  std::optional<double> metric_corrupted;
  std::optional<double> metric_reordered;
};

FaultReport analyze_faults(const RunTrace& run);

// ---------------------------------------------------------------------------
// (f) Asynchronous delivery (simmpi::AsyncWindow)
// ---------------------------------------------------------------------------

/// Tally of the version-4 "deliver" events an async runtime records
/// (trace.hpp: rank = destination, peer = source, tag = MsgTag code, a0 =
/// staleness in epochs, a1 = payload doubles). Empty/zero for bulk-synchronous traces — the renderers emit an
/// async section only when any() is true.
struct AsyncReport {
  std::uint64_t delivered = 0;      ///< total matured deliveries
  std::uint64_t staleness_sum = 0;  ///< Σ staleness over deliveries
  std::uint64_t staleness_max = 0;
  /// staleness_histogram[s] = deliveries that arrived s epochs after they
  /// were staged; size = staleness_max + 1 (empty when no deliver events).
  /// Index 0 counts on-time (next-fence) deliveries, so the histogram's
  /// tail is exactly the asynchrony the staleness bound permitted.
  std::vector<std::uint64_t> staleness_histogram;
  /// Deliveries per destination rank (who consumed stale data).
  std::vector<std::uint64_t> by_dest;

  bool any() const { return delivered > 0; }
  double mean_staleness() const {
    return delivered == 0 ? 0.0
                          : static_cast<double>(staleness_sum) /
                                static_cast<double>(delivered);
  }

  /// The runtime's simmpi.async_* metric totals, when the trace carries
  /// them (cross-checked against the event tallies by `dsouth-analyze
  /// -check`). metric_staleness_max is the max over the per-rank gauge
  /// slots, not a sum.
  std::optional<double> metric_delivered;
  std::optional<double> metric_staleness_sum;
  std::optional<double> metric_staleness_max;
};

AsyncReport analyze_async(const RunTrace& run);

// ---------------------------------------------------------------------------
// (g) Node-aware routing (simmpi/node_topology.hpp)
// ---------------------------------------------------------------------------

/// Tally of the version-5 "hop" events the runtime records when a
/// non-flat node topology is attached (trace.hpp: rank = paying rank,
/// peer = physical destination, tag = hop kind, a0 = modeled bytes, a1 =
/// logical records). The report needs no node map: hop kinds alone carry
/// the tier split, and the leader-pair matrix falls out of the
/// inter_leader events' (rank, peer) endpoints. Empty/zero for
/// single-level traces — the renderers emit a node section only when
/// any() is true.
struct NodeReport {
  /// Hop kinds, exactly as the runtime emits them (trace.hpp constants).
  static constexpr int kNumHopKinds = 5;
  static const char* hop_name(int kind);

  std::array<std::uint64_t, kNumHopKinds> hops_by_kind{};
  std::array<std::uint64_t, kNumHopKinds> bytes_by_kind{};
  /// Tier totals (hops_by_kind folded through trace::hop_is_inter).
  std::uint64_t msgs_intra = 0;
  std::uint64_t bytes_intra = 0;
  std::uint64_t msgs_inter = 0;
  std::uint64_t bytes_inter = 0;
  /// Leader->leader aggregates (routing on only): Σ records over
  /// inter_leader hops; frames == hops_by_kind[kHopInterLeader].
  std::uint64_t forwarded_records = 0;

  /// Leader pairs ranked by frame count (ties: bytes, then (src, dst)),
  /// descending — the node-level hot-pair view of the comm matrix.
  struct LeaderPair {
    int src = -1;  ///< source-node leader rank
    int dst = -1;  ///< destination-node leader rank
    std::uint64_t frames = 0;
    std::uint64_t records = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<LeaderPair> leader_pairs;

  bool any() const { return msgs_intra + msgs_inter > 0; }

  /// The runtime's simmpi.node_* metric totals, when the trace carries
  /// them (cross-checked against the event tallies by `dsouth-analyze
  /// -check`).
  std::optional<double> metric_msgs_intra;
  std::optional<double> metric_bytes_intra;
  std::optional<double> metric_msgs_inter;
  std::optional<double> metric_bytes_inter;
  std::optional<double> metric_forward_frames;
  std::optional<double> metric_forwarded_records;
};

NodeReport analyze_node_routing(const RunTrace& run);

// ---------------------------------------------------------------------------
// (h) Elastic recovery (src/elastic)
// ---------------------------------------------------------------------------

/// Tally of the version-6 "elastic" events the elastic driver records when
/// the fault plan configures permanent kills (trace.hpp: tag = action code,
/// a0/a1 = per-action detail). Empty/zero for kill-free traces — the
/// renderers emit an elastic section only when any() is true, so fault-free
/// elastic output is byte-identical to a plain run's.
struct ElasticReport {
  /// Action codes, exactly as elastic::run_elastic emits them.
  enum Action : int {
    kCheckpoint = 0,   ///< a0 = buffer bytes, a1 = checkpointed step
    kKill = 1,         ///< a0 = dead rank, a1 = kill epoch
    kRestore = 2,      ///< a0 = restored step, a1 = restored epoch
    kRepartition = 3,  ///< a0 = dead rank, a1 = rows moved off it
  };
  static constexpr int kNumActions = 4;
  static const char* action_name(int action);

  std::array<std::uint64_t, kNumActions> by_action{};
  std::uint64_t total = 0;

  std::uint64_t checkpoint_bytes_last = 0;
  std::uint64_t checkpoint_bytes_max = 0;
  /// Smallest checkpoint seen (0 only when there were none) — `-check`
  /// asserts every checkpoint event carried a positive byte count.
  std::uint64_t checkpoint_bytes_min = 0;
  /// Σ rows moved over repartition events.
  std::uint64_t rows_moved = 0;
  /// Dead ranks from kill events, in detection (stream) order.
  std::vector<int> dead_ranks;

  /// Stream-order sanity, checked while scanning: every restore event was
  /// preceded by at least one checkpoint and by at least as many kill
  /// events as restores so far (a restore only happens after a detected
  /// death rolls back to a stored checkpoint).
  bool restores_ordered = true;

  bool any() const { return total > 0; }
};

ElasticReport analyze_elastic(const RunTrace& run);

}  // namespace dsouth::analysis
