#pragma once

/// \file rcm.hpp
/// Symmetric row/column permutations. The ablation bench
/// (bench/ablation_design_choices.cpp) and examples/partitioning_demo.cpp
/// shuffle a generated matrix's banded natural order with them, so that
/// contiguous-block partitions fare as they would on a real matrix.

#include <vector>

#include "graph/graph.hpp"

namespace dsouth::graph {

/// Inverse of a permutation.
std::vector<index_t> invert_permutation(const std::vector<index_t>& perm);

/// Symmetric permutation of a square matrix: B = P A Pᵀ with
/// b[new_i][new_j] = a[perm[new_i]][perm[new_j]].
sparse::CsrMatrix permute_symmetric(const sparse::CsrMatrix& a,
                                    const std::vector<index_t>& perm);

}  // namespace dsouth::graph
