#pragma once

/// \file layout.hpp
/// Distributed data layout: how a global SPD matrix is split across ranks.
///
/// Given a matrix and a k-way partition (DESIGN.md: one subdomain per
/// simulated MPI rank, partition from our METIS-substitute), this computes
/// for every rank p:
///   - its global rows (ascending; the paper's δ_p offsets generalized to
///     non-contiguous row sets),
///   - the local diagonal block A_pp,
///   - per neighbor q: the coupling blocks and index lists that the solvers
///     need to exchange boundary updates and maintain residual ghost layers.
///
/// Index conventions for a neighbor pair (p, q):
///   ghost_rows — q's rows coupled to p, ascending global order. This set
///     is simultaneously (a) the support of p's residual ghost layer z_q,
///     (b) the rows whose Δx q sends to p, and (c) q's "boundary rows
///     w.r.t. p" on the sending side — so one ordering serves both ends of
///     the channel and messages need no index payload.
///   send_rows_local — p's rows coupled to q (local indices, ascending):
///     the Δx and boundary-residual values p sends to q, in exactly the
///     order of q's ghost_rows list for p. Call its positions p's
///     "boundary coordinates" toward q.
///   a_pq — |send_rows_local| × |ghost_rows| block: p's coupled rows vs.
///     q's coupled rows. Only non-empty rows are stored (A_pq is zero on
///     every other row of p), so row s stands for local row
///     send_rows_local[s]. Applying an incoming update is
///     r_p[send_rows_local[s]] -= (a_pq · Δx_q)[s] — work and flops in
///     proportion to nnz(a_pq), not to |rows_p|.
///   a_qp — |ghost_rows| × |send_rows_local| block (= a_pqᵀ for symmetric
///     A): lets p update its ghost layer z_q -= a_qp · Δx_p with purely
///     local data ("the process responsible for row i stores column i of
///     A", §3). Its columns are boundary coordinates too, so it takes the
///     per-neighbor boundary Δx — the same vector p ships to q.
///
/// RankData also caches a_local's diagonal (a_local_diag, computed once
/// here) so the per-step Gauss–Seidel sweep reads a_ii directly instead of
/// searching each row. The cache lives in RankData, not CsrMatrix: the
/// layout's blocks are never modified after construction, whereas other
/// CsrMatrix users rewrite values in place.

#include <vector>

#include "graph/partition.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"
#include "wire/comm_plan.hpp"

namespace dsouth::dist {

using sparse::CsrMatrix;
using sparse::index_t;
using sparse::value_t;

struct NeighborBlock {
  int rank = -1;
  std::vector<index_t> ghost_rows;       ///< q's coupled rows (global, asc)
  std::vector<index_t> send_rows_local;  ///< p's coupled rows (local, asc)
  CsrMatrix a_pq;  ///< send_rows_local × ghost_rows coupling block
  CsrMatrix a_qp;  ///< ghost_rows × send_rows_local coupling block (a_pqᵀ)
};

struct RankData {
  std::vector<index_t> rows;  ///< global rows owned (ascending)
  CsrMatrix a_local;          ///< diagonal block (local indices)
  std::vector<value_t> a_local_diag;  ///< a_local.diagonal(), cached
  std::vector<NeighborBlock> neighbors;  ///< ascending by rank id

  index_t num_rows() const { return static_cast<index_t>(rows.size()); }
  /// Index into `neighbors` for a given rank id, or -1.
  int neighbor_index(int rank) const;
};

class DistLayout {
 public:
  /// Requires a square, structurally symmetric matrix and a valid partition
  /// of its rows. Empty parts are allowed (their ranks just idle).
  DistLayout(const CsrMatrix& a, const graph::Partition& partition);

  int num_ranks() const { return static_cast<int>(ranks_.size()); }
  index_t global_rows() const { return n_; }
  const RankData& rank(int p) const;

  int rank_of_row(index_t global_row) const;
  index_t local_of_row(index_t global_row) const;

  /// Scatter a global vector into per-rank local vectors.
  std::vector<std::vector<value_t>> scatter(
      std::span<const value_t> global) const;

  /// Gather per-rank local vectors back into a global vector.
  std::vector<value_t> gather(
      const std::vector<std::vector<value_t>>& local) const;

  /// Structural self-check: block dimensions (a_pq and a_qp in boundary
  /// coordinates), the cached diagonal, mirrored ghost/send lists, and
  /// a_pq's values against `a`.
  /// Test-only oracle: DistLayout.* and EdgeCases.LayoutToleratesEmptyParts.
  bool validate(const CsrMatrix& a) const;

  /// The wire-level communication plan precomputed from the neighbor
  /// blocks: for each rank, one Peer per NeighborBlock (same order), with
  /// send_width = |send_rows_local| (values shipped to that neighbor) and
  /// recv_width = |ghost_rows| (values arriving from it). The two differ
  /// in general — the channel is directed.
  const wire::CommPlan& comm_plan() const { return plan_; }

 private:
  index_t n_ = 0;
  std::vector<RankData> ranks_;
  wire::CommPlan plan_;
  std::vector<int> rank_of_;       // global row -> rank
  std::vector<index_t> local_of_;  // global row -> local index
};

}  // namespace dsouth::dist
