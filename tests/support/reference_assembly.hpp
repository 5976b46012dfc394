#pragma once
// Reference MNA assembly for the compiled-assembly oracle
// (tests/test_assembly_diff.cpp). It keeps the (row, col)-addressed
// stamper the engine used before slot binding and its own copy of every
// device type's stamp equations, reading the devices only through their
// public accessors and save_state. Every write searches its position, so
// the reference shares no slot, binder or pattern code with src/spice.

#include <cstddef>
#include <utility>
#include <vector>

#include "la/matrix.hpp"
#include "la/sparse_matrix.hpp"
#include "spice/circuit.hpp"

namespace tfetsram::testing_support {

/// Dense reference system at x: jac is n x n, rhs has n entries.
void reference_assemble(spice::Circuit& circuit, const spice::AnalysisState& as,
                        const la::Vector& x, double gmin, la::Matrix& jac,
                        la::Vector& rhs);

/// CSR reference system at x over `pattern`'s structure: values[k] is the
/// entry at pattern.col_idx()[k]. A write outside the pattern fails the
/// running test and is dropped.
void reference_assemble(spice::Circuit& circuit, const spice::AnalysisState& as,
                        const la::Vector& x, double gmin,
                        const la::SparseMatrix& pattern,
                        std::vector<double>& values, la::Vector& rhs);

/// The pattern the engine must freeze: the full diagonal plus every
/// position written by a DC and by a transient reference assembly (with
/// a gmin shunt), sorted by row, then column, without duplicates.
std::vector<std::pair<std::size_t, std::size_t>>
reference_pattern(spice::Circuit& circuit);

} // namespace tfetsram::testing_support
