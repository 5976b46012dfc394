#pragma once
// DC operating-point solver: damped Newton-Raphson with gmin-stepping and
// source-stepping homotopies as fallbacks — the standard SPICE playbook.

#include <optional>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/solve_error.hpp"
#include "spice/solver_options.hpp"

namespace tfetsram::spice {

struct DcResult {
    bool converged = false;
    int iterations = 0;      ///< total NR iterations across all strategies
    std::string strategy;    ///< which strategy succeeded ("newton", ...;
                             ///< "failed" when every fallback was exhausted)
    la::Vector x;            ///< solution (meaningful iff converged)
    std::vector<StrategyAttempt> attempts; ///< fallback chain, attempt order
    std::optional<SolveError> error;       ///< populated iff !converged
};

/// Solve the operating point to the tolerances `opts` under `ctx` (its
/// backend policy, stats sink, fault plan and deadline) with sources
/// evaluated at `time`. If `initial_guess` is provided (and correctly
/// sized) Newton starts there. Binds `ctx` as this thread's ambient
/// context for the duration.
DcResult solve_dc(Circuit& circuit, const SimContext& ctx,
                  const SolverOptions& opts, double time = 0.0,
                  const la::Vector* initial_guess = nullptr);

namespace detail {
/// Single damped-Newton solve at fixed gmin/source scale to the tolerances
/// `opts`, using ctx's backend/stats. On success, x holds the solution; on
/// failure x is left at the last iterate. Returns iterations used (negative
/// if not converged). If `final_residual` is non-null it receives the true
/// KCL residual norm at the last assembled iterate — for a converged solve
/// that is the iterate the accepting Newton update stepped from, a diagnostic
/// bound on (not a re-evaluation at) the returned solution; NaN when the
/// solve was aborted by an injected fault. Reusing the loop's own residual
/// keeps the converged path free of a final re-assembly.
int newton_raphson(Circuit& circuit, const AnalysisState& as,
                   const SimContext& ctx, const SolverOptions& opts,
                   double gmin, la::Vector& x,
                   double* final_residual = nullptr);
} // namespace detail

} // namespace tfetsram::spice
