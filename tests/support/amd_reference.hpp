#pragma once
// la::amd_order without the dense-node rule: every node, the shared vdd
// rail of an array included, takes part in the minimum-degree elimination.
// The oracle the rule's fill is held to (tests/test_amd_dense.cpp).
// Test-only.

#include <cstddef>
#include <vector>

#include "la/sparse_matrix.hpp"

namespace tfetsram::testing_support {

/// Approximate minimum degree order on the symmetrized pattern of `a`, as
/// la::amd_order computed it before dense nodes were ordered last.
std::vector<std::size_t> amd_order_all_nodes(const la::SparseMatrix& a);

} // namespace tfetsram::testing_support
