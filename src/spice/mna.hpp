#pragma once
// Modified-nodal-analysis assembly: linearize every device at a candidate
// solution into the Jacobian and right-hand side. Assembly is compiled:
// once per topology revision and target layout, every device binds each
// position it can stamp to a slot (Device::bind), and each assembly then
// writes through those slots with plain indexed adds. The dense layout
// (la::Matrix, slot r * n + c) and the sparse one (a CSR la::SparseMatrix
// whose pattern build_pattern froze, slot = value index) run the same
// stamping code in the same order, so they accumulate identical addends in
// identical order.

#include "la/matrix.hpp"
#include "la/sparse_matrix.hpp"
#include "spice/circuit.hpp"

namespace tfetsram::spice {

/// Assemble the linearized MNA system for `circuit` at candidate solution x.
/// `gmin` is a convergence-aid conductance added from every non-ground node
/// to ground. jac/rhs are resized and zeroed as needed. Binds the devices
/// to the dense layout first unless they already are at this topology.
void assemble(Circuit& circuit, const AnalysisState& as, const la::Vector& x,
              double gmin, la::Matrix& jac, la::Vector& rhs);

/// Sparse assembly into a finalized pattern (see build_pattern). Rebinds
/// the devices first when `jac` is not the matrix they are bound to (a
/// contract violation there when its pattern misses a position). The hot
/// path is allocation-free: values are zeroed and re-accumulated in place.
void assemble(Circuit& circuit, const AnalysisState& as, const la::Vector& x,
              double gmin, la::SparseMatrix& jac, la::Vector& rhs);

/// Freeze the circuit's MNA sparsity pattern into `jac` and bind the
/// devices to it: the full diagonal (gmin shunts; also gives pivoting a
/// diagonal target) plus every position any device binds, which covers DC
/// *and* transient analysis (charge-storage companion models only stamp in
/// transient). Call once per circuit topology, before sparse assemble().
void build_pattern(Circuit& circuit, la::SparseMatrix& jac);

} // namespace tfetsram::spice
