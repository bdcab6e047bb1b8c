#include "dist/layout.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "sparse/coo.hpp"
#include "util/error.hpp"

namespace dsouth::dist {

int RankData::neighbor_index(int rank) const {
  // Neighbor lists are short (mesh-like graphs); linear scan with the
  // ascending-id invariant.
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    if (neighbors[k].rank == rank) return static_cast<int>(k);
    if (neighbors[k].rank > rank) break;
  }
  return -1;
}

DistLayout::DistLayout(const CsrMatrix& a, const graph::Partition& partition) {
  DSOUTH_CHECK(a.rows() == a.cols());
  DSOUTH_CHECK(partition.is_valid(a.rows()));
  n_ = a.rows();
  const int num_parts = static_cast<int>(partition.num_parts);
  ranks_.resize(static_cast<std::size_t>(num_parts));
  rank_of_.resize(static_cast<std::size_t>(n_));
  local_of_.assign(static_cast<std::size_t>(n_), -1);

  for (index_t i = 0; i < n_; ++i) {
    const auto p = static_cast<int>(partition.part[static_cast<std::size_t>(i)]);
    rank_of_[static_cast<std::size_t>(i)] = p;
    auto& rows = ranks_[static_cast<std::size_t>(p)].rows;
    local_of_[static_cast<std::size_t>(i)] =
        static_cast<index_t>(rows.size());
    rows.push_back(i);  // ascending because i ascends
  }

  // Per-rank assembly. Collect local-block entries and per-neighbor
  // coupling entries in one pass over the owned rows.
  for (int p = 0; p < num_parts; ++p) {
    RankData& rd = ranks_[static_cast<std::size_t>(p)];
    const auto m = static_cast<index_t>(rd.rows.size());

    // Pass 1: discover neighbor ranks, their coupled (ghost) rows, and
    // p's rows coupled to each (the send rows, ascending because li is).
    std::map<int, std::vector<index_t>> ghost_sets;  // rank -> global rows
    std::map<int, std::vector<index_t>> send_rows;   // rank -> local rows
    for (index_t li = 0; li < m; ++li) {
      const index_t gi = rd.rows[static_cast<std::size_t>(li)];
      for (index_t gj : a.row_cols(gi)) {
        const int q = rank_of_[static_cast<std::size_t>(gj)];
        if (q == p) continue;
        ghost_sets[q].push_back(gj);
        auto& sr = send_rows[q];
        if (sr.empty() || sr.back() != li) sr.push_back(li);
      }
    }
    for (auto& [q, ghosts] : ghost_sets) {
      std::sort(ghosts.begin(), ghosts.end());
      ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    }

    // Pass 2: build the local block and per-neighbor a_pq blocks. Row s of
    // a_pq is local row send_rows[q][s]: only coupled rows are stored.
    sparse::CooBuilder local(m, m);
    std::map<int, sparse::CooBuilder> pq;  // rank -> coupling block builder
    for (auto& [q, ghosts] : ghost_sets) {
      pq.emplace(q, sparse::CooBuilder(
                        static_cast<index_t>(send_rows.at(q).size()),
                        static_cast<index_t>(ghosts.size())));
    }
    for (index_t li = 0; li < m; ++li) {
      const index_t gi = rd.rows[static_cast<std::size_t>(li)];
      auto cols = a.row_cols(gi);
      auto vals = a.row_vals(gi);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const index_t gj = cols[k];
        const int q = rank_of_[static_cast<std::size_t>(gj)];
        if (q == p) {
          local.add(li, local_of_[static_cast<std::size_t>(gj)], vals[k]);
        } else {
          const auto& ghosts = ghost_sets[q];
          auto it = std::lower_bound(ghosts.begin(), ghosts.end(), gj);
          DSOUTH_ASSERT(it != ghosts.end() && *it == gj);
          const auto& sr = send_rows.at(q);
          auto row = std::lower_bound(sr.begin(), sr.end(), li);
          DSOUTH_ASSERT(row != sr.end() && *row == li);
          pq.at(q).add(static_cast<index_t>(row - sr.begin()),
                       static_cast<index_t>(it - ghosts.begin()), vals[k]);
        }
      }
    }

    rd.a_local = local.to_csr();
    rd.a_local_diag = rd.a_local.diagonal();
    rd.neighbors.reserve(ghost_sets.size());
    for (auto& [q, ghosts] : ghost_sets) {
      NeighborBlock nb;
      nb.rank = q;
      nb.ghost_rows = std::move(ghosts);
      nb.send_rows_local = std::move(send_rows.at(q));
      nb.a_pq = pq.at(q).to_csr();
      nb.a_qp = nb.a_pq.transpose();
      rd.neighbors.push_back(std::move(nb));  // map iterates ascending rank
    }
  }

  // Derive the wire CommPlan from the neighbor blocks, one Peer per
  // NeighborBlock in the same (ascending-rank) order so solvers can index
  // channels and neighbors with the same k.
  std::vector<std::vector<wire::CommPlan::Peer>> peers(ranks_.size());
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    peers[p].reserve(ranks_[p].neighbors.size());
    for (const auto& nb : ranks_[p].neighbors) {
      peers[p].emplace_back(nb.rank, nb.send_rows_local.size(),
                            nb.ghost_rows.size());
    }
  }
  plan_ = wire::CommPlan(std::move(peers));
}

const RankData& DistLayout::rank(int p) const {
  DSOUTH_CHECK(p >= 0 && p < num_ranks());
  return ranks_[static_cast<std::size_t>(p)];
}

int DistLayout::rank_of_row(index_t global_row) const {
  DSOUTH_CHECK(global_row >= 0 && global_row < n_);
  return rank_of_[static_cast<std::size_t>(global_row)];
}

index_t DistLayout::local_of_row(index_t global_row) const {
  DSOUTH_CHECK(global_row >= 0 && global_row < n_);
  return local_of_[static_cast<std::size_t>(global_row)];
}

std::vector<std::vector<value_t>> DistLayout::scatter(
    std::span<const value_t> global) const {
  DSOUTH_CHECK(global.size() == static_cast<std::size_t>(n_));
  std::vector<std::vector<value_t>> out(ranks_.size());
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    const auto& rows = ranks_[p].rows;
    out[p].resize(rows.size());
    for (std::size_t li = 0; li < rows.size(); ++li) {
      out[p][li] = global[static_cast<std::size_t>(rows[li])];
    }
  }
  return out;
}

std::vector<value_t> DistLayout::gather(
    const std::vector<std::vector<value_t>>& local) const {
  DSOUTH_CHECK(local.size() == ranks_.size());
  std::vector<value_t> out(static_cast<std::size_t>(n_));
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    const auto& rows = ranks_[p].rows;
    DSOUTH_CHECK(local[p].size() == rows.size());
    for (std::size_t li = 0; li < rows.size(); ++li) {
      out[static_cast<std::size_t>(rows[li])] = local[p][li];
    }
  }
  return out;
}

bool DistLayout::validate(const CsrMatrix& a) const {
  // Row ownership is a partition of [0, n).
  std::vector<char> seen(static_cast<std::size_t>(n_), 0);
  for (int p = 0; p < num_ranks(); ++p) {
    const RankData& rd = rank(p);
    for (index_t g : rd.rows) {
      if (g < 0 || g >= n_ || seen[static_cast<std::size_t>(g)]) return false;
      seen[static_cast<std::size_t>(g)] = 1;
      if (rank_of_row(g) != p) return false;
    }
    // Block shapes.
    if (rd.a_local.rows() != rd.num_rows() ||
        rd.a_local.cols() != rd.num_rows() ||
        rd.a_local_diag != rd.a_local.diagonal()) {
      return false;
    }
    for (const auto& nb : rd.neighbors) {
      if (nb.rank == p || nb.rank < 0 || nb.rank >= num_ranks()) return false;
      const auto sends = static_cast<index_t>(nb.send_rows_local.size());
      const auto ghosts = static_cast<index_t>(nb.ghost_rows.size());
      if (nb.a_pq.rows() != sends || nb.a_pq.cols() != ghosts) return false;
      if (nb.a_qp.rows() != ghosts || nb.a_qp.cols() != sends) return false;
      // Send rows: ascending local rows, each one coupled to q (a_pq
      // stores no empty row).
      for (std::size_t s = 0; s < nb.send_rows_local.size(); ++s) {
        const index_t li = nb.send_rows_local[s];
        if (li < 0 || li >= rd.num_rows() ||
            (s > 0 && nb.send_rows_local[s - 1] >= li) ||
            nb.a_pq.row_nnz(static_cast<index_t>(s)) == 0) {
          return false;
        }
      }
      // Mirrored channel lists: q's send rows == p's ghost rows for q.
      const RankData& qd = rank(nb.rank);
      const int back = qd.neighbor_index(p);
      if (back < 0) return false;
      const auto& qnb = qd.neighbors[static_cast<std::size_t>(back)];
      if (qnb.ghost_rows.size() != nb.send_rows_local.size()) return false;
      for (std::size_t k = 0; k < nb.send_rows_local.size(); ++k) {
        if (qnb.ghost_rows[k] !=
            rd.rows[static_cast<std::size_t>(nb.send_rows_local[k])]) {
          return false;
        }
      }
      // Values of a_pq match the global matrix; row s is local row
      // send_rows_local[s].
      for (index_t s = 0; s < nb.a_pq.rows(); ++s) {
        auto cols = nb.a_pq.row_cols(s);
        auto vals = nb.a_pq.row_vals(s);
        const index_t gi = rd.rows[static_cast<std::size_t>(
            nb.send_rows_local[static_cast<std::size_t>(s)])];
        for (std::size_t k = 0; k < cols.size(); ++k) {
          const index_t gj = nb.ghost_rows[static_cast<std::size_t>(cols[k])];
          if (std::abs(a.at(gi, gj) - vals[k]) > 0.0) return false;
        }
      }
    }
  }
  for (char s : seen) {
    if (!s) return false;
  }
  return true;
}

}  // namespace dsouth::dist
