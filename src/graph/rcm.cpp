#include "graph/rcm.hpp"

#include "util/error.hpp"

namespace dsouth::graph {

std::vector<index_t> invert_permutation(const std::vector<index_t>& perm) {
  std::vector<index_t> inv(perm.size(), -1);
  for (std::size_t k = 0; k < perm.size(); ++k) {
    const index_t v = perm[k];
    DSOUTH_CHECK(v >= 0 && v < static_cast<index_t>(perm.size()));
    DSOUTH_CHECK_MSG(inv[static_cast<std::size_t>(v)] < 0,
                     "not a permutation: duplicate value " << v);
    inv[static_cast<std::size_t>(v)] = static_cast<index_t>(k);
  }
  return inv;
}

sparse::CsrMatrix permute_symmetric(const sparse::CsrMatrix& a,
                                    const std::vector<index_t>& perm) {
  DSOUTH_CHECK(a.rows() == a.cols());
  DSOUTH_CHECK(perm.size() == static_cast<std::size_t>(a.rows()));
  std::vector<index_t> inv = invert_permutation(perm);
  // col_map[j] = new index of old column j.
  return a.extract(perm, inv, a.cols());
}

}  // namespace dsouth::graph
