#pragma once
// Per-partition linear-kernel routing report. One SolverInfo describes a
// single MNA system — which backend it was (or would be) routed to and how
// big/sparse it is. The flat array engine reports one for its whole-array
// circuit; the mixed-level engine (src/hier) reports one per active
// partition, which is how `run_all array_scaling` records per-partition
// unknowns/nnz/fill in the BENCH_array_scaling.json it writes to its output
// directory (TFETSRAM_OUT_DIR; docs/SOLVER.md, docs/HIERARCHY.md).

#include <cstddef>

#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/solver_select.hpp"

namespace tfetsram::spice {

struct SolverInfo {
    SolverKind kind = SolverKind::kDense;
    std::size_t unknowns = 0;
    std::size_t pattern_nnz = 0; ///< 0 on the dense path
    std::size_t lu_nnz = 0;      ///< L+U nonzeros, 0 on the dense path
    double fill_ratio = 0.0;     ///< lu_nnz / pattern_nnz, 0 on dense
};

/// Probe a circuit's linear-kernel routing. Meaningful after the first
/// solve pinned the workspace; before that it reports the selection the
/// governing context (`sim` when non-null, else the ambient context) would
/// make, with zero nnz.
inline SolverInfo probe_solver_info(Circuit& circuit, const SimContext* sim) {
    SolverInfo info;
    info.unknowns = circuit.num_unknowns();
    const SolveWorkspace& w = circuit.workspace();
    info.kind = w.kind.value_or(
        context_or_ambient(sim).select_kind(info.unknowns));
    if (info.kind == SolverKind::kSparse && w.sjac.finalized()) {
        info.pattern_nnz = w.sjac.nnz();
        info.lu_nnz = w.slu.analyzed() ? w.slu.lu_nnz() : 0;
        if (info.pattern_nnz > 0)
            info.fill_ratio = static_cast<double>(info.lu_nnz) /
                              static_cast<double>(info.pattern_nnz);
    }
    return info;
}

} // namespace tfetsram::spice
