#pragma once
// Per-circuit scratch storage for the Newton inner loop. Owning it on the
// Circuit (rather than allocating per solve) makes the hot path of
// newton_raphson_core allocation-free after the first solve: the MNA
// system, candidate iterates, and factorization storage are all reused
// across iterations, solves, and transient steps. One workspace per
// circuit also means one per Monte-Carlo worker thread (each sample
// rebuilds its own cell), so no synchronization is needed.
//
// The workspace carries both linear backends; `kind` records which one
// this circuit was routed to (chosen on the first Newton solve from
// SimContext::select_kind and then pinned, so a circuit never mixes
// dense and sparse factorizations mid-analysis). The dense members stay
// empty on the sparse path and vice versa.

#include <cstdint>
#include <optional>
#include <vector>

#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/sparse_lu.hpp"
#include "la/sparse_matrix.hpp"
#include "spice/device.hpp"
#include "spice/solver_select.hpp"

namespace tfetsram::spice {

struct SolveWorkspace {
    la::Vector rhs;          ///< MNA right-hand side at the current iterate
    la::Vector x_new;        ///< full Newton update target
    la::Vector x_try;        ///< damped/line-search candidate

    // --- dense backend ---
    la::Matrix jac;          ///< MNA system matrix at the current iterate
    la::LuFactorization lu;  ///< factored in place each iteration

    // --- sparse backend ---
    la::SparseMatrix sjac;   ///< CSR MNA system (pattern frozen per circuit)
    la::SparseLu slu;        ///< symbolic once, numeric refactor per iterate

    /// What the devices' slots index (spice/mna.cpp): the topology revision
    /// they were bound at (0 = never), the CSR matrix (null for dense) and
    /// its value count. An assembly into any other target rebinds first.
    struct SlotLayout {
        std::uint64_t topology_revision = 0;
        const la::SparseMatrix* csr = nullptr;
        std::size_t extent = 0;
    };
    SlotLayout layout;
    std::vector<Slot> gmin_slots; ///< diagonal slot of every node unknown

    /// Backend decided at the circuit's first Newton solve; empty until
    /// then. Pinned until the circuit's topology changes (see
    /// topology_revision below), which re-runs selection and, on the
    /// sparse path, the symbolic analysis.
    std::optional<SolverKind> kind;

    /// Circuit::topology_revision() the decision above (and any frozen
    /// sparse pattern) corresponds to; 0 = never decided.
    std::uint64_t topology_revision = 0;
};

} // namespace tfetsram::spice
