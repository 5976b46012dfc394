#pragma once
// Greedy minimum-degree ordering: the O(n^2)-per-pick reference the AMD
// ordering (la::amd_order) is tested against for fill quality. Test-only.

#include <cstddef>
#include <vector>

#include "la/sparse_matrix.hpp"

namespace tfetsram::testing_support {

/// Fill-reducing elimination order: greedy minimum degree on the
/// symmetrized pattern of `a`, lowest index on degree ties.
std::vector<std::size_t> minimum_degree_order(const la::SparseMatrix& a);

} // namespace tfetsram::testing_support
