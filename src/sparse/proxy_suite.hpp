#pragma once

/// \file proxy_suite.hpp
/// The 14-matrix proxy suite standing in for the paper's SuiteSparse test
/// set (Table 1), plus the small FEM problem of Figures 2/5. See DESIGN.md
/// §5 for the per-matrix flavor mapping and the rationale.
///
/// Every proxy is symmetric positive definite and is returned already
/// symmetrically scaled to unit diagonal, exactly as the paper preprocesses
/// its matrices (§4.2). Row counts are the paper's scaled by ~1/16 so the
/// full evaluation runs on one core; `size_factor` rescales further
/// (tests use ~0.01-0.05 for sub-second suites).

#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/mesh.hpp"
#include "sparse/types.hpp"

namespace dsouth::sparse {

/// Metadata describing one proxy matrix.
struct ProxyInfo {
  std::string name;          ///< proxy name, e.g. "Flan_1565p"
  std::string paper_matrix;  ///< SuiteSparse matrix it stands in for
  std::string kind;          ///< generator flavor, e.g. "fem3d_elasticity"
  index_t rows = 0;
  index_t nnz = 0;
};

/// A generated proxy: metadata plus the scaled matrix.
struct ProxyMatrix {
  ProxyInfo info;
  CsrMatrix a;  ///< SPD, unit diagonal
};

/// The 14 proxy names, in the paper's Table 1 order.
const std::vector<std::string>& proxy_names();

/// True if `name` is one of the 14 proxies.
bool is_proxy_name(const std::string& name);

/// Build a proxy by name. `size_factor` scales the number of rows
/// (approximately; linear dimensions are rounded). Throws CheckError for
/// unknown names or degenerate sizes.
ProxyMatrix make_proxy(const std::string& name, double size_factor = 1.0);

/// Seeded tenant variant of a proxy matrix, for batched multi-tenant
/// serving (dist/batch.hpp, bench/throughput): SAME sparsity pattern —
/// tenant layouts built from one partition share the communication
/// structure bit-for-bit — with every symmetric off-diagonal pair scaled
/// by a deterministic per-pair factor in (1 - magnitude, 1], drawn
/// statelessly from `seed` (different seeds = different tenants). The
/// unit diagonal is untouched and off-diagonal magnitudes only shrink, so
/// the variant keeps the base's symmetry, diagonal dominance, and
/// positive definiteness. `magnitude` must lie in (0, 1).
CsrMatrix make_tenant_variant(const CsrMatrix& base, std::uint64_t seed,
                              double magnitude = 0.25);

/// The small irregular-FEM Poisson problem of Figures 2 and 5:
/// P1 elements on a perturbed 81×41-vertex triangulation of the square,
/// 79×39 = 3081 interior unknowns (the paper's example has 3081 rows),
/// symmetrically scaled to unit diagonal. The mesh is returned too so
/// examples can visualize selections on it.
struct SmallFemProblem {
  TriMesh mesh;
  CsrMatrix a;  ///< 3081 × 3081, SPD, unit diagonal
};
SmallFemProblem make_small_fem_problem();

}  // namespace dsouth::sparse
