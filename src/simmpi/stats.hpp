#pragma once

/// \file stats.hpp
/// Communication accounting for the simulated runtime. The paper's primary
/// communication metric — "communication cost = total number of messages
/// sent by all processes divided by the number of processes" (§4.3) — and
/// the Table 3 breakdown into solve messages vs. explicit-residual messages
/// are computed here from exact per-put counts (not modeled).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dsouth::simmpi {

/// Message category, set by the sender at each put. Matches the paper's
/// Table 3 breakdown.
enum class MsgTag : int {
  kSolve = 0,     ///< updates sent after relaxing a subdomain
  kResidual = 1,  ///< explicit residual-norm updates
  kOther = 2,
};
inline constexpr int kNumTags = 3;

/// Exact per-put message/byte counters, kept by the Runtime and read by the
/// drivers between epochs. Counts are deterministic (they accumulate at the
/// fence in merge order) and therefore identical across execution backends;
/// the trace layer's "simmpi.msgs_*" counters mirror them independently,
/// which table3's cross-check exploits.
class CommStats {
 public:
  explicit CommStats(int num_ranks);

  int num_ranks() const { return num_ranks_; }

  /// Account one sent (physical) message carrying `logical` wire records
  /// (> 1 only for coalesced frames, see wire/comm_plan.hpp). Called by
  /// the runtime only (at the fence, in deterministic merge order) —
  /// drivers read, never write.
  void record_send(int source, MsgTag tag, std::uint64_t bytes,
                   std::uint64_t logical = 1);

  /// Fault-injection accounting (src/faults, docs/resilience.md), written
  /// by the runtime at the fence like record_send. Dropped/duplicated/
  /// corrupted messages are *also* counted as sent — the sender paid for
  /// the put — so these counters are a breakdown of delivery outcomes,
  /// not a correction to the send totals. All stay 0 when no fault
  /// schedule is attached.
  void record_drop(int source) { bump_fault(source, msgs_dropped_); }
  void record_duplicate(int source) { bump_fault(source, msgs_duplicated_); }
  /// Counts bit-flip corruption and truncation alike.
  void record_corrupt(int source) { bump_fault(source, msgs_corrupted_); }
  /// A message swallowed because its source or destination rank is
  /// permanently dead (faults::RankKill, src/elastic): staged traffic from
  /// a dead rank, in-flight traffic it had outstanding, and traffic
  /// addressed to it. Like the other fault counters it is a breakdown of
  /// delivery outcomes — the message is also counted as sent.
  void record_dead_drop(int source) { bump_fault(source, msgs_dead_dropped_); }

  std::uint64_t dropped_messages() const { return msgs_dropped_; }
  std::uint64_t duplicated_messages() const { return msgs_duplicated_; }
  std::uint64_t corrupted_messages() const { return msgs_corrupted_; }
  std::uint64_t dead_dropped_messages() const { return msgs_dead_dropped_; }

  /// Asynchronous-delivery accounting (simmpi::AsyncWindow), written by
  /// the runtime at the delivering fence when the runtime is async.
  /// `staleness` is the number of epochs between staging and delivery;
  /// under bulk-synchronous delivery these counters are never touched and
  /// stay 0, like the fault counters above.
  void record_async_delivery(int dest, std::uint64_t staleness) {
    bump_fault(dest, msgs_async_delivered_);
    async_staleness_sum_ += staleness;
    if (staleness > async_staleness_max_) async_staleness_max_ = staleness;
  }

  std::uint64_t async_delivered() const { return msgs_async_delivered_; }
  std::uint64_t async_staleness_sum() const { return async_staleness_sum_; }
  std::uint64_t async_staleness_max() const { return async_staleness_max_; }

  /// Two-tier physical accounting (simmpi/node_topology.hpp, DESIGN.md
  /// §13), written by the runtime at the fence only when a (non-flat)
  /// NodeTopology is attached — all zero otherwise, like the fault and
  /// async counters. A *hop* is one physical transfer: the message itself
  /// when routed direct, or each leg (source → leader, leader → leader,
  /// leader → destination) when routed through node leaders. These count
  /// physical fabric traffic and are disjoint from the logical per-tag
  /// counters above, which keep their exact legacy meaning.
  void record_hop(bool inter_node, std::uint64_t bytes) {
    if (inter_node) {
      ++msgs_inter_;
      bytes_inter_ += bytes;
    } else {
      ++msgs_intra_;
      bytes_intra_ += bytes;
    }
  }

  /// One leader → leader physical message (an aggregated forward frame,
  /// or a bare record when it carried a single one) holding `records`
  /// logical wire records. Its bytes/msg hop is recorded separately via
  /// record_hop(true, ...).
  void record_forward(std::uint64_t records) {
    ++forward_frames_;
    forwarded_records_ += records;
  }

  std::uint64_t intra_messages() const { return msgs_intra_; }
  std::uint64_t intra_bytes() const { return bytes_intra_; }
  std::uint64_t inter_messages() const { return msgs_inter_; }
  std::uint64_t inter_bytes() const { return bytes_inter_; }
  std::uint64_t forward_frames() const { return forward_frames_; }
  std::uint64_t forwarded_records() const { return forwarded_records_; }

  std::uint64_t total_messages() const;
  std::uint64_t total_messages(MsgTag tag) const;
  /// Wire records carried by the messages counted above. Equal to the
  /// message counts unless coalescing framed several records per put.
  std::uint64_t logical_messages() const;
  std::uint64_t logical_messages(MsgTag tag) const;
  std::uint64_t total_bytes() const;

  /// Paper metric: total messages / P.
  double comm_cost() const;
  /// Table 3 breakdown: messages of one category / P.
  double comm_cost(MsgTag tag) const;

  /// Per-tenant accounting (batched multi-tenant serving, DESIGN.md §14).
  /// configure_tenants(n) sizes the slots; the slot COUNT survives
  /// reset() — a batched run that resets stats between measurement phases
  /// keeps its tenant layout, only the tallies re-zero. Written by the
  /// runtime at the fence (ascending source order) like every other
  /// counter; all slots stay 0 when no batch is in flight.
  void configure_tenants(std::size_t n);
  std::size_t num_tenants() const { return tenant_records_.size(); }
  void record_tenant(std::size_t tenant, std::uint64_t records,
                     std::uint64_t doubles);
  /// Logical wire records shipped on behalf of one tenant. In a batched
  /// run this matches the logical message count the tenant's solo run
  /// would have produced (tests/test_batch.cpp pins that invariance).
  std::uint64_t tenant_records(std::size_t tenant) const;
  /// Payload doubles shipped on behalf of one tenant (its share of the
  /// shared physical frames, excluding the frame headers).
  std::uint64_t tenant_doubles(std::size_t tenant) const;

  /// Zero every counter (see Runtime::reset_stats).
  void reset();

  /// Append every counter to `out` as a fixed-order u64 stream (the
  /// elastic checkpoint codec, src/elastic/checkpoint.cpp). Structure
  /// (rank count, tenant slot count) travels too, so load() can verify it
  /// decodes into a same-shape instance. A save/load round-trip is exact.
  void save(std::vector<std::uint64_t>& out) const;

  /// Inverse of save(). `in` must be exactly one save() stream written by
  /// a CommStats with the same rank count; the tenant slot count is
  /// adopted from the stream (like configure_tenants). Checked fatal on
  /// shape mismatch.
  void load(std::span<const std::uint64_t> in);

  /// Words save() appends for `num_tenants` tenant slots (codec sizing).
  static std::size_t saved_words(std::size_t num_tenants) {
    return 24 + 2 * num_tenants;
  }

 private:
  void bump_fault(int source, std::uint64_t& counter);

  int num_ranks_;
  std::array<std::uint64_t, kNumTags> msgs_by_tag_{};
  std::array<std::uint64_t, kNumTags> logical_by_tag_{};
  std::array<std::uint64_t, kNumTags> bytes_by_tag_{};
  std::uint64_t msgs_dropped_ = 0;
  std::uint64_t msgs_duplicated_ = 0;
  std::uint64_t msgs_corrupted_ = 0;
  std::uint64_t msgs_dead_dropped_ = 0;
  std::uint64_t msgs_async_delivered_ = 0;
  std::uint64_t async_staleness_sum_ = 0;
  std::uint64_t async_staleness_max_ = 0;
  // Per-tier physical hop counters (node-aware runs only).
  std::uint64_t msgs_intra_ = 0;
  std::uint64_t bytes_intra_ = 0;
  std::uint64_t msgs_inter_ = 0;
  std::uint64_t bytes_inter_ = 0;
  std::uint64_t forward_frames_ = 0;
  std::uint64_t forwarded_records_ = 0;
  // Per-tenant tallies (batched serving only; empty otherwise).
  std::vector<std::uint64_t> tenant_records_, tenant_doubles_;
};

}  // namespace dsouth::simmpi
