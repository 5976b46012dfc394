#pragma once
// Reference dense LU: Doolittle elimination with partial pivoting and the
// permuted forward/back substitution, every element read and written
// through la::Matrix's bounds-checked operator(). la::LuFactorization runs
// the same arithmetic in the same order over row pointers with its bounds
// checked once at entry; tests/test_kernel_diff.cpp holds the two to
// bitwise agreement (factors, permutation, solutions, failing column).

#include <cstddef>
#include <vector>

#include "la/matrix.hpp"

namespace testing_support {

/// Factor `lu` in place, recording row swaps in `perm`. Returns the column
/// whose pivot magnitude fell below `pivot_tol`, or lu.rows() on success.
std::size_t reference_eliminate(tfetsram::la::Matrix& lu,
                                std::vector<std::size_t>& perm,
                                double pivot_tol = 1e-300);

/// Solve with the factors reference_eliminate produced; `x` is resized.
void reference_solve_into(const tfetsram::la::Matrix& lu,
                          const std::vector<std::size_t>& perm,
                          const tfetsram::la::Vector& b,
                          tfetsram::la::Vector& x);

} // namespace testing_support
