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
//
// The dense backend solves the full MNA system without factoring all of
// it: every voltage source with one grounded terminal fixes its node, so
// SourceFold factors only the free block and recovers the known entries
// (docs/SOLVER.md, "Folded grounded sources").

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

class Circuit;

/// Dense MNA solve with the grounded ideal voltage sources folded out.
/// A source whose other terminal is ground fixes that node to
/// ±rhs[branch]; its node and branch unknowns are "known" and every other
/// unknown is "free". solve() factors the free block J_ff with the
/// right-hand side rhs_f - J_fk * E, then recovers each folded branch
/// current from its node's KCL row. The result is the full system's
/// solution up to rounding; with no grounded source the free block is the
/// whole system.
class SourceFold {
public:
    /// Classify the circuit's voltage sources (after Circuit::prepare) and
    /// size the free-block storage; the only allocating call. Sources are
    /// taken in branch order: a grounded source whose node is already
    /// known stays a branch unknown, as does a floating source.
    void classify(const Circuit& circuit);

    /// Solve jac * x = rhs (the full n x n system classify() saw). Returns
    /// false when the free block is numerically singular; x is then
    /// unspecified.
    bool solve(const la::Matrix& jac, const la::Vector& rhs, la::Vector& x);

    /// Unknowns in the factored block (4 of 14 for a 6T cell).
    [[nodiscard]] std::size_t free_unknowns() const { return free_.size(); }
    /// Unknowns of the full system classify() saw.
    [[nodiscard]] std::size_t unknowns() const { return n_; }

private:
    /// A grounded source's node unknown, its branch unknown, and the sign
    /// of the branch column in the node's row: +1 when the node is the
    /// source's pos terminal (x_node = rhs[branch]), -1 when it is neg
    /// (x_node = -rhs[branch]).
    struct Known {
        std::size_t node;
        std::size_t branch;
        double sign;
    };

    std::size_t n_ = 0;
    std::vector<std::size_t> free_; ///< free unknowns, ascending
    std::vector<Known> known_;
    la::Matrix jff_;                ///< gathered free block
    la::Vector rhs_f_;              ///< rhs_f - J_fk * E
    la::Vector x_f_;                ///< free-block solution
    la::LuFactorization lu_;        ///< factored in place each iteration
};

struct SolveWorkspace {
    la::Vector rhs;          ///< MNA right-hand side at the current iterate
    la::Vector x_new;        ///< full Newton update target
    la::Vector x_try;        ///< damped/line-search candidate

    // --- dense backend ---
    la::Matrix jac;          ///< MNA system matrix at the current iterate
    SourceFold fold;         ///< classified with the backend pin

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
    /// sparse path, the symbolic analysis; on the dense path, the source
    /// classification.
    std::optional<SolverKind> kind;

    /// Circuit::topology_revision() the decision above (and any frozen
    /// sparse pattern or source classification) corresponds to; 0 = never
    /// decided.
    std::uint64_t topology_revision = 0;
};

} // namespace tfetsram::spice
