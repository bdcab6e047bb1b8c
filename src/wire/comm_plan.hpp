#pragma once

/// \file comm_plan.hpp
/// Precomputed communication plans and per-neighbor staging channels.
///
/// A CommPlan is the static half of a rank's communication: who its
/// neighbors are and the directed boundary widths of each channel. It is
/// computed once at layout time (DistLayout owns one) and shared by every
/// solver run on that layout.
///
/// A ChannelSet is the dynamic half: one per (solver, rank), it stages
/// typed wire records (wire.hpp) to the rank's peers. Records encode
/// in place — directly into the runtime's pooled staging buffer in direct
/// mode, or into the channel's persistent per-peer buffer in coalescing
/// mode — so the solver hot paths perform no heap allocation per epoch
/// once buffers are warm.
///
/// Coalescing (DistRunOptions::coalesce_messages): all records a rank
/// stages to one peer within a put phase ship as a single physical
/// message. A group of one record is sent in the bare v1 encoding —
/// byte-identical to direct mode — and only groups of two or more are
/// framed (wire.hpp). The paper's bulk-synchronous solvers stage at most
/// one record per (neighbor, epoch) — each protocol phase already merges
/// everything it knows into one compound record — so for them coalescing
/// is provably behavior-preserving and the logical/physical split it
/// reports (CommStats) *measures* that per-pair minimality; synthetic
/// multi-record traffic (tests, micro-benches) shows the strict physical
/// reduction.
///
/// Thread-safety: a ChannelSet belongs to one rank and is only touched by
/// the thread driving that rank's phase (the ExecutionBackend discipline,
/// simmpi/execution.hpp).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "simmpi/node_topology.hpp"
#include "simmpi/rank_context.hpp"
#include "wire/wire.hpp"

namespace dsouth::wire {

/// Static per-rank communication plan: the peer list with directed
/// channel widths, in the deterministic neighbor order the solvers
/// iterate (ascending peer rank — dist/layout.hpp).
class CommPlan {
 public:
  struct Peer {
    int rank = -1;               ///< peer rank id
    std::size_t send_width = 0;  ///< doubles per boundary segment we send
    std::size_t recv_width = 0;  ///< doubles per boundary segment we receive
  };

  CommPlan() = default;
  explicit CommPlan(std::vector<std::vector<Peer>> peers_per_rank)
      : peers_(std::move(peers_per_rank)) {}

  int num_ranks() const { return static_cast<int>(peers_.size()); }
  std::span<const Peer> peers(int rank) const;

  /// Largest single-record encoding any rank sends (buffer sizing hint).
  std::size_t max_record_doubles() const;

 private:
  std::vector<std::vector<Peer>> peers_;
};

/// Dense num_nodes × num_nodes (row-major) count of the directed `plan`
/// channels crossing each ordered node pair of `topo`; the diagonal is
/// zero because same-node channels are never forwarded. This is what
/// simmpi::NodeRoutingOptions::pair_channel_counts expects: the runtime
/// sizes the presence bitmap of a leader -> leader forward frame from it.
std::vector<std::uint32_t> node_pair_channel_counts(
    const CommPlan& plan, const simmpi::NodeTopology& topo);

/// Per-rank staging facade over the plan. open() hands out encode-in-place
/// segments; flush() ships whatever coalescing buffered.
class ChannelSet {
 public:
  ChannelSet(const CommPlan& plan, int rank);

  /// Toggle coalescing. Must be called between epochs (checked: no
  /// buffered records). Mutually exclusive with sequencing.
  void set_coalescing(bool on);
  bool coalescing() const { return coalesce_; }

  /// Toggle sequenced envelopes (wire v2, resilient mode). When on, every
  /// record ships wrapped in an envelope carrying a per-peer monotonically
  /// increasing sequence number and a checksum (wire.hpp), which the
  /// receiving solver uses to reject duplicated/stale/corrupted payloads
  /// (docs/resilience.md). Envelope checksums are sealed at flush() —
  /// call flush() at the end of every put phase that used open(), exactly
  /// as in coalescing mode. Mutually exclusive with coalescing (an
  /// enveloped frame would need per-frame and per-record sequencing; the
  /// resilient path keeps one record per physical message instead).
  void set_sequencing(bool on);
  bool sequencing() const { return sequence_; }

  /// Envelopes sent so far to peer `k` (== the next sequence number).
  std::uint64_t sent_seq(std::size_t k) const;

  /// Restore peer `k`'s envelope counter from a checkpoint
  /// (DistStationarySolver::restore_state). Call only between put phases —
  /// an unsealed envelope (pending flush) would already have consumed the
  /// old counter.
  void set_sent_seq(std::size_t k, std::uint64_t seq);

  /// Toggle batch-sink staging (batched multi-tenant serving,
  /// dist/batch.hpp). While on, open() buffers every record — including
  /// sequenced envelopes, whose checksums are sealed at flush() — and
  /// flush() ships nothing: the buffered records wait for ship_batch(),
  /// which merges the staging of all co-scheduled tenants into one tenant
  /// frame per (peer, tag). Must be toggled between epochs (checked: no
  /// buffered records). Mutually exclusive with coalescing — the tenant
  /// frame IS the batching layer's coalescing (it subsumes the per-peer
  /// merge), so the coordinator never enables both.
  void set_batch_staging(bool on);
  bool batch_staging() const { return batch_; }

  /// Ship everything the co-scheduled tenants buffered: for each peer and
  /// each MsgTag (tag-enum order), the buffered records of every set — in
  /// `sets` order, preserving each tenant's own send order — merge into
  /// ONE physical tenant frame (wire.hpp) counted as one logical record
  /// per entry, with each entry's records/doubles attributed to its tenant
  /// (RankContext::add_tenant_records). A lone entry still ships framed:
  /// the receiver needs the tenant id to demux (B = 1 byte-identity is the
  /// coordinator's job — it bypasses batching entirely). All sets must be
  /// batch-staged views of the same (plan, rank); `tenants[i]` is the
  /// batch index of `sets[i]`. Buffers are cleared on return.
  static void ship_batch(simmpi::RankContext& ctx,
                         std::span<ChannelSet* const> sets,
                         std::span<const int> tenants);

  /// Begin a record of type `t` addressed to peer index `k` (plan order ==
  /// layout neighbor order). Direct mode: the record is staged into the
  /// runtime immediately (one physical put, encoded in place). Coalescing
  /// mode: the record is buffered until flush(). Returned spans are valid
  /// until this ChannelSet's next open()/flush() in coalescing mode, and
  /// until the runtime's next fence() in direct mode; the caller must
  /// write every element.
  MutableRecord open(simmpi::RankContext& ctx, std::size_t k, RecordType t,
                     double norm2 = 0.0, double gamma2 = 0.0);

  /// Ship buffered records, and seal any unsealed envelope checksums
  /// (sequencing mode — the staged spans stay valid until the fence, so
  /// sealing here covers everything the phase encoded after open()).
  /// No-op in plain direct mode / for empty buffers.
  /// One record goes out bare (byte-identical to direct mode); two or
  /// more go out as one frame counted as N logical messages. All records
  /// buffered for one peer must share a MsgTag (mixed-tag frames would
  /// make the per-tag Table 3 accounting ambiguous). Call at the end of
  /// every put phase that used open().
  void flush(simmpi::RankContext& ctx);

  /// Records currently buffered for peer `k` (coalescing mode only).
  std::size_t buffered(std::size_t k) const;

  /// True when no put phase is in flight: nothing buffered for any peer
  /// and no envelope awaiting its flush() seal. Checkpointing requires an
  /// idle channel set (solver_base.hpp capture_state).
  bool idle() const;

 private:
  struct PeerBuffer {
    std::vector<double> bodies;  ///< concatenated v1 encodings
    std::vector<RecordType> types;
    std::vector<std::size_t> lengths;
  };

  const CommPlan* plan_;
  int rank_;
  bool coalesce_ = false;
  bool sequence_ = false;
  bool batch_ = false;
  std::vector<PeerBuffer> buffers_;  ///< indexed like peers(rank_)
  std::vector<std::uint64_t> send_seq_;    ///< per-peer envelope counters
  std::vector<std::span<double>> pending_;  ///< envelopes awaiting seal
};

}  // namespace dsouth::wire
