#pragma once

/// \file node_topology.hpp
/// Two-level (node × rank) machine topology for the simulated runtime.
///
/// Real machines are not flat: P MPI ranks live on P/c nodes of c cores
/// each, and an inter-node message costs an order of magnitude more than
/// an intra-node one. NodeTopology is the rank → node map the runtime and
/// the layout share (DESIGN.md §13, docs/communication.md): it fixes, per
/// node, one *leader* rank — deterministically the lowest rank id on the
/// node — through which node-aware routing funnels all inter-node traffic
/// (fan-in at the source node's leader, one aggregated message between
/// leaders, fan-out at the destination node's leader), the aggregation of
/// Bienz/Gropp/Olson's *Node Aware SpMV* (PAPERS.md) applied to the same
/// ghost-exchange pattern.
///
/// The map is pure data: construction validates it, everything else is
/// O(1) lookup. A *flat* topology — every node holding exactly one rank —
/// carries no information (every message is inter-node, no aggregation is
/// possible), and the runtime treats it exactly like no topology at all,
/// which is what keeps flat-topology runs byte-identical to topology-free
/// ones (the same degeneracy contract as a staleness-0 simmpi::AsyncWindow,
/// simmpi/runtime.hpp).

#include <cstdint>
#include <vector>

namespace dsouth::simmpi {

class NodeTopology {
 public:
  /// Pack `num_ranks` ranks onto nodes of `ranks_per_node` consecutive
  /// ranks each (the common contiguous-blocks mapping of real MPI
  /// launchers): rank r lives on node r / ranks_per_node. The last node
  /// may be partially filled. Requires num_ranks >= 1 and
  /// 1 <= ranks_per_node.
  static NodeTopology ranks_per_node(int num_ranks, int ranks_per_node);

  /// Explicit rank → node map. Node ids must be dense (every id in
  /// [0, max+1) used by at least one rank) so num_nodes() is meaningful.
  static NodeTopology explicit_map(std::vector<int> node_of_rank);

  NodeTopology() = default;

  int num_ranks() const { return static_cast<int>(node_of_.size()); }
  int num_nodes() const { return static_cast<int>(leader_of_.size()); }

  /// The node rank `r` lives on.
  int node_of(int r) const { return node_of_[static_cast<std::size_t>(r)]; }

  /// The node's leader: deterministically the lowest rank id on the node
  /// (so leader election never depends on construction or backend order).
  int leader_of(int node) const {
    return leader_of_[static_cast<std::size_t>(node)];
  }

  bool is_leader(int r) const { return leader_of(node_of(r)) == r; }

  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// Ranks on `node`, in ascending order (leader first).
  const std::vector<int>& ranks_on(int node) const {
    return ranks_on_[static_cast<std::size_t>(node)];
  }

  /// True when every node holds exactly one rank. Degenerate: no message
  /// is intra-node and no aggregation is possible; the runtime treats a
  /// flat topology exactly like no topology (byte-identity contract).
  bool is_flat() const { return flat_; }

 private:
  std::vector<int> node_of_;                ///< rank -> node
  std::vector<int> leader_of_;              ///< node -> lowest rank on it
  std::vector<std::vector<int>> ranks_on_;  ///< node -> ranks, ascending
  bool flat_ = true;
};

}  // namespace dsouth::simmpi
