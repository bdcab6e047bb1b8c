#pragma once

/// \file block_jacobi.hpp
/// Block Jacobi (paper Algorithm 1) — the baseline multigrid smoother the
/// paper positions Distributed Southwell against. Every parallel step,
/// every rank relaxes its subdomain with one local Gauss–Seidel sweep
/// ("Hybrid Gauss–Seidel" / "Processor Block Gauss–Seidel") and writes its
/// boundary solution updates to every neighbor's window. One epoch per
/// step.

#include "dist/solver_base.hpp"

namespace dsouth::dist {

class BlockJacobi : public DistStationarySolver {
 public:
  BlockJacobi(const DistLayout& layout, simmpi::Runtime& rt,
              std::span<const value_t> b, std::span<const value_t> x0);

  const char* name() const override { return "BlockJacobi"; }

  // Stepping hook (solver_base.hpp): one epoch, every rank relaxes.
  // Message p -> q: a GhostDelta record carrying Δx at p's boundary rows
  // w.r.t. q, ordered by the shared channel convention (see layout.hpp).
  void rank_send(int e, simmpi::RankContext& ctx, int p) override;

 protected:
  void absorb_record(simmpi::RankContext& ctx, int p, std::size_t nbi,
                     const wire::Record& rec) override;
};

}  // namespace dsouth::dist
