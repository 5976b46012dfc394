#include "spice/dc.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/mna.hpp"
#include "spice/stats.hpp"
#include "util/fault.hpp"

namespace tfetsram::spice {

// ------------------------------------------------------------ SourceFold

void SourceFold::classify(const Circuit& circuit) {
    const std::size_t node_unknowns = circuit.num_nodes() - 1;
    n_ = circuit.num_unknowns();
    std::vector<unsigned char> is_known(n_, 0);
    known_.clear();
    const std::vector<VoltageSource*>& sources = circuit.voltage_sources();
    for (std::size_t b = 0; b < sources.size(); ++b) {
        const VoltageSource& v = *sources[b];
        const bool pos_grounded = v.pos() == kGround;
        if (pos_grounded == (v.neg() == kGround))
            continue; // floating: pos != neg, so never both grounded
        const NodeId node = pos_grounded ? v.neg() : v.pos();
        TFET_EXPECTS(node <= node_unknowns);
        const std::size_t j = node - 1;
        if (is_known[j] != 0)
            continue; // a second source on a known node stays a branch
        // Circuit::prepare numbers branch unknowns in source order.
        const std::size_t ib = node_unknowns + b;
        is_known[j] = 1;
        is_known[ib] = 1;
        known_.push_back({j, ib, pos_grounded ? -1.0 : 1.0});
    }
    free_.clear();
    for (std::size_t i = 0; i < n_; ++i)
        if (is_known[i] == 0)
            free_.push_back(i);
    const std::size_t m = free_.size();
    jff_ = la::Matrix(m, m);
    rhs_f_.assign(m, 0.0);
    x_f_.assign(m, 0.0);
}

bool SourceFold::solve(const la::Matrix& jac, const la::Vector& rhs,
                       la::Vector& x) {
    const std::size_t n = n_;
    const std::size_t m = free_.size();
    // classify() built free_ and known_ from indices below n, so this
    // entry check bounds every access the loops form.
    TFET_EXPECTS(jac.rows() == n && jac.cols() == n && rhs.size() == n);
    TFET_EXPECTS(&x != &rhs);
    x.resize(n);
    const double* const a = jac.data();

    // A folded source's branch row reads +-x_node = rhs[branch].
    for (const Known& k : known_)
        x[k.node] = k.sign * rhs[k.branch];

    // Gather J_ff and rhs_f - J_fk * E. A folded branch column has its only
    // entry in its own node's row, so only known node columns move.
    double* const ff = jff_.data();
    for (std::size_t r = 0; r < m; ++r) {
        const double* const row = a + free_[r] * n;
        double acc = rhs[free_[r]];
        for (const Known& k : known_)
            acc -= row[k.node] * x[k.node];
        rhs_f_[r] = acc;
        for (std::size_t c = 0; c < m; ++c)
            ff[r * m + c] = row[free_[c]];
    }
    if (!lu_.factor_in_place(jff_))
        return false;
    lu_.solve_into(rhs_f_, x_f_);
    for (std::size_t r = 0; r < m; ++r)
        x[free_[r]] = x_f_[r];

    // Each branch current from its node's KCL row, where the branch column
    // holds +-1 and no other folded branch column has an entry.
    for (const Known& k : known_) {
        const double* const row = a + k.node * n;
        double acc = rhs[k.node];
        for (std::size_t c = 0; c < m; ++c)
            acc -= row[free_[c]] * x_f_[c];
        for (const Known& o : known_)
            acc -= row[o.node] * x[o.node];
        x[k.branch] = k.sign * acc;
    }
    return true;
}

namespace detail {

namespace {

/// True KCL/branch residual norm at x: assemble there and evaluate
/// J(x)*x - rhs(x). (In the companion formulation this equals the sum of
/// nonlinear device currents at x, i.e. the genuine equation residual.)
/// The row products are accumulated in place — no temporary vector.
/// Assembles into whichever Jacobian backend the workspace is pinned to,
/// leaving it holding the linearization at x for the next factorization.
double assemble_residual_norm(Circuit& circuit, const AnalysisState& as,
                              double gmin, const la::Vector& x,
                              SolveWorkspace& w) {
    const std::size_t n = x.size();
    double acc = 0.0;
    if (w.kind == SolverKind::kSparse) {
        assemble(circuit, as, x, gmin, w.sjac, w.rhs);
        const auto& rp = w.sjac.row_ptr();
        const auto& ci = w.sjac.col_idx();
        const auto& val = w.sjac.values();
        for (std::size_t i = 0; i < n; ++i) {
            double r = -w.rhs[i];
            for (std::size_t k = rp[i]; k < rp[i + 1]; ++k)
                r += val[k] * x[ci[k]];
            acc += r * r;
        }
    } else {
        assemble(circuit, as, x, gmin, w.jac, w.rhs);
        // Every index the loop forms is below n, so this entry check
        // bounds each element access.
        TFET_EXPECTS(w.jac.rows() == n && w.jac.cols() == n &&
                     w.rhs.size() == n);
        const double* const jac = w.jac.data();
        for (std::size_t i = 0; i < n; ++i) {
            const double* const row = jac + i * n;
            double r = -w.rhs[i];
            for (std::size_t c = 0; c < n; ++c)
                r += row[c] * x[c];
            acc += r * r;
        }
    }
    return std::sqrt(acc);
}

/// Body of detail::newton_raphson; the public wrapper meters it.
///
/// Each iterate is assembled exactly once: the line search's last
/// assembly doubles as the next iteration's linearization, the initial
/// residual evaluation provides iteration 1's, and the accepted final
/// iterate needs none. A converged k-iteration solve therefore costs
/// k + backtracks assemblies and k LU factorizations — the contract
/// tests/test_solver_perf.cpp pins.
///
/// On the dense path each factorization is of the free block only
/// (SourceFold): the grounded sources' nodes and branch currents are
/// recovered around it, so the update x_new, and with it damping, the
/// line search, the residual norm and the convergence test, still covers
/// every unknown and equals the full-system solve up to rounding.
int newton_raphson_core(Circuit& circuit, const AnalysisState& as,
                        const SimContext& ctx, const SolverOptions& opts,
                        double gmin, la::Vector& x, double* final_residual) {
    SolverStats& stats = ctx.stats();
    const std::size_t n = circuit.num_unknowns();
    const std::size_t n_node_unknowns = circuit.num_nodes() - 1;
    TFET_EXPECTS(x.size() == n);

    // All scratch lives on the circuit: the loop below is allocation-free
    // once the workspace has been sized by a first solve.
    SolveWorkspace& w = circuit.workspace();

    // Pin the linear backend on the circuit's first solve; symbolic work
    // (the slot-binding pattern build + fill-reducing analysis, or the
    // dense path's grounded-source classification) happens exactly once
    // per circuit topology, never per Newton iterate. A circuit that
    // gained nodes or devices since the last solve re-runs it (dense
    // assembly rebinds on its own).
    if (w.topology_revision != circuit.topology_revision()) {
        w.kind = ctx.select_kind(n);
        w.topology_revision = circuit.topology_revision();
        if (*w.kind == SolverKind::kSparse) {
            build_pattern(circuit, w.sjac);
            w.slu.analyze(w.sjac);
            ++stats.sparse_symbolic_analyses;
            stats.sparse_ordering_us += w.slu.ordering_us();
            stats.sparse_pattern_nnz = w.sjac.nnz();
        } else {
            w.fold.classify(circuit);
        }
    }

    double resid = assemble_residual_norm(circuit, as, gmin, x, w);

    // Warm-start acceptance floor: a first iterate whose entering KCL
    // residual is already below per-equation itol is at the solution (a
    // re-solve from a converged point), so requiring a second iteration
    // would only repeat work. Cold starts keep the two-iteration gate,
    // which guards against the quasi-Newton limit cycles tabulated
    // conductances can produce.
    const double warm_floor = opts.itol * std::sqrt(static_cast<double>(n));

    for (int iter = 1; iter <= opts.max_nr_iterations; ++iter) {
        // Cancellation checkpoint: one poll per Newton iteration. A fired
        // token/deadline makes this iteration report failure; solve_dc's
        // between-strategy checks turn that into a graceful cancelled
        // result instead of escalating through the homotopy chain.
        if (ctx.poll_cancellation() != SolveErrorCode::kNone) {
            if (final_residual != nullptr)
                *final_residual = resid;
            return -iter;
        }
        // The workspace Jacobian holds the linearization at the current x.
        // lu_factorizations counts both kernels (the contract tests pin it
        // to nr_iterations); sparse_refactorizations additionally meters
        // the sparse numeric path. The dense path factors only the free
        // block (SourceFold) and returns the full update, so everything
        // below runs over all n unknowns as before.
        ++stats.lu_factorizations;
        bool factored;
        if (w.kind == SolverKind::kSparse) {
            ++stats.sparse_refactorizations;
            factored = w.slu.refactor(w.sjac);
            const la::SparseLu::RefactorInfo& ri = w.slu.last_refactor();
            if (ri.static_hit)
                ++stats.sparse_static_pivot_hits;
            stats.sparse_pivot_fallbacks += ri.fallbacks;
            if (factored) {
                stats.sparse_lu_nnz = w.slu.lu_nnz();
                w.slu.solve_into(w.rhs, w.x_new);
            }
        } else {
            factored = w.fold.solve(w.jac, w.rhs, w.x_new);
        }
        if (!factored) {
            if (final_residual != nullptr)
                *final_residual = resid;
            return -iter;
        }
        const la::Vector& x_new = w.x_new;

        // A non-finite update is a failed iteration, as a failed
        // factorization is: the convergence test below is false for NaN
        // (so NaN would pass as converged) and the damping's std::max
        // skips it. DC then escalates its strategies; a transient shrinks
        // dt.
        for (std::size_t i = 0; i < n; ++i) {
            if (!std::isfinite(x_new[i])) {
                if (final_residual != nullptr)
                    *final_residual = resid;
                return -iter;
            }
        }

        // Convergence: the full Newton update is within tolerance. Checked
        // before any damping/line search — at the solution the update is
        // tiny regardless of what a noise-floor line search would decide.
        bool converged = true;
        for (std::size_t i = 0; i < n; ++i) {
            const double tol = i < n_node_unknowns
                                   ? opts.vntol + opts.reltol * std::fabs(x[i])
                                   : opts.itol + opts.reltol * std::fabs(x[i]);
            if (std::fabs(x_new[i] - x[i]) > tol) {
                converged = false;
                break;
            }
        }
        if (converged && (iter >= 2 || resid <= warm_floor)) {
            x = x_new;
            if (final_residual != nullptr)
                *final_residual = resid;
            return iter;
        }

        // Damping: bound the update so exponential devices cannot fling
        // the iterate out of their valid range.
        double max_dx = 0.0;
        for (std::size_t i = 0; i < n_node_unknowns; ++i)
            max_dx = std::max(max_dx, std::fabs(x_new[i] - x[i]));
        const double alpha0 =
            max_dx > opts.dv_limit ? opts.dv_limit / max_dx : 1.0;

        // Globalization: backtracking line search on the true residual
        // norm. Essential with lookup-table devices, whose tabulated
        // conductances make this a quasi-Newton iteration that can
        // otherwise limit-cycle in high-gain bias regions.
        // Below this the residual is numerical noise (LU round-off on the
        // source-constraint rows); insisting on strict decrease there
        // would starve the step to nothing.
        constexpr double kResidFloor = 1e-13;

        w.x_try.resize(n);
        double alpha = alpha0;
        double resid_try = 0.0;
        for (int bt = 0;; ++bt) {
            for (std::size_t i = 0; i < n; ++i)
                w.x_try[i] = x[i] + alpha * (x_new[i] - x[i]);
            resid_try = assemble_residual_norm(circuit, as, gmin, w.x_try, w);
            if (resid < kResidFloor || resid_try < kResidFloor ||
                resid_try <= resid * (1.0 - 1e-4 * alpha) || bt >= 6)
                break;
            ++stats.line_search_backtracks;
            alpha *= 0.5;
        }

        x.swap(w.x_try);
        resid = resid_try; // workspace Jacobian/rhs already hold x's linearization
    }
    if (final_residual != nullptr)
        *final_residual = resid;
    return -opts.max_nr_iterations;
}

} // namespace

int newton_raphson(Circuit& circuit, const AnalysisState& as,
                   const SimContext& ctx, const SolverOptions& opts,
                   double gmin, la::Vector& x, double* final_residual) {
    if (ctx.should_fail(fault::Site::kNewton)) {
        if (final_residual != nullptr)
            *final_residual = std::numeric_limits<double>::quiet_NaN();
        return -1;
    }
    const int iters =
        newton_raphson_core(circuit, as, ctx, opts, gmin, x, final_residual);
    ctx.stats().nr_iterations += static_cast<std::uint64_t>(std::abs(iters));
    return iters;
}

} // namespace detail

namespace {

/// Graceful-degradation result: the solve is over, the best iterate so far
/// is preserved, and the error says why (kCancelled or kDeadlineExceeded).
DcResult make_cancelled_dc(const SimContext& ctx, SolveErrorCode code,
                           double time, la::Vector last_x,
                           std::vector<StrategyAttempt> attempts,
                           int iterations) {
    ++ctx.stats().cancelled_solves;
    DcResult result;
    result.converged = false;
    result.strategy = "cancelled";
    result.iterations = iterations;
    result.attempts = attempts;
    result.x = last_x;
    SolveError err;
    err.code = code;
    err.message = code == SolveErrorCode::kCancelled
                      ? "dc operating point: cancelled by token"
                      : "dc operating point: deadline budget expired";
    err.strategies = std::move(attempts);
    err.time = time;
    err.last_iterate = std::move(last_x);
    result.error = std::move(err);
    return result;
}

} // namespace

DcResult solve_dc(Circuit& circuit, const SimContext& ctx,
                  const SolverOptions& opts, double time,
                  const la::Vector* initial_guess) {
    // Bind the context so nested work (the MNA assembly counters)
    // attributes here too.
    const ScopedContext bind(ctx);
    ++ctx.stats().dc_solves;
    circuit.prepare();
    const std::size_t n = circuit.num_unknowns();

    AnalysisState as;
    as.mode = AnalysisMode::kDc;
    as.time = time;

    DcResult result;
    result.x.assign(n, 0.0);
    if (initial_guess != nullptr && initial_guess->size() == n)
        result.x = *initial_guess;

    // Entry checkpoint: a solve that starts under an already-expired
    // context returns immediately instead of spending a Newton chain.
    {
        const SolveErrorCode entry = ctx.poll_cancellation();
        if (entry != SolveErrorCode::kNone)
            return make_cancelled_dc(ctx, entry, time, std::move(result.x),
                                     {}, 0);
    }

    if (ctx.should_fail(fault::Site::kDcSolve)) {
        result.converged = false;
        result.strategy = "failed";
        SolveError err;
        err.code = SolveErrorCode::kInjectedFault;
        err.message = "dc solve forced non-convergent by fault injector";
        err.time = time;
        err.last_iterate = result.x;
        result.error = std::move(err);
        return result;
    }

    // Deterministic stall site: park here — heartbeat silent — until the
    // context is cancelled or its deadline expires. This is how the tests
    // and ci.sh force the runner watchdog's stall-detection path: the
    // parked solve stops ticking the token, the watchdog notices the
    // frozen progress counter and cancels, and the solve unwinds through
    // the ordinary graceful-degradation return.
    if (ctx.should_fail(fault::Site::kStall)) {
        for (;;) {
            const SolveErrorCode status = ctx.cancellation_status();
            if (status != SolveErrorCode::kNone)
                return make_cancelled_dc(ctx, status, time,
                                         std::move(result.x), {}, 0);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    // Each strategy's record: name, iterations it consumed, whether it
    // produced the solution, and the residual at its final iterate.
    la::Vector last_x = result.x;

    // Strategy 1: plain damped Newton from the guess.
    {
        StrategyAttempt attempt;
        attempt.name = "newton";
        la::Vector x = result.x;
        const int iters = detail::newton_raphson(
            circuit, as, ctx, opts, opts.gmin, x, &attempt.residual);
        attempt.iterations = std::abs(iters);
        attempt.converged = iters > 0;
        result.iterations += attempt.iterations;
        result.attempts.push_back(std::move(attempt));
        if (iters > 0) {
            result.converged = true;
            result.strategy = "newton";
            result.x = std::move(x);
            return result;
        }
        last_x = std::move(x);
    }

    // A cancelled/expired context must not escalate through the homotopy
    // fallbacks — strategy 1 "failed" because it was told to stop.
    {
        const SolveErrorCode status = ctx.cancellation_status();
        if (status != SolveErrorCode::kNone)
            return make_cancelled_dc(ctx, status, time, std::move(last_x),
                                     std::move(result.attempts),
                                     result.iterations);
    }

    // Strategy 2: gmin stepping — solve with a large shunt conductance and
    // relax it geometrically down to the target, warm-starting each stage.
    {
        StrategyAttempt attempt;
        attempt.name = "gmin-stepping";
        la::Vector x(n, 0.0);
        bool ok = true;
        // Relax the shunt geometrically until it reaches the target within
        // a relative floor — an exact == comparison would never fire for
        // gmin = 0 (the decade loop only hits 0.0 after ~320 denormal
        // stages) — with a hard stage cap as backstop. The final stage
        // always solves at opts.gmin itself, so the converged solution is
        // exact for the requested shunt.
        constexpr int kMaxGminStages = 16;
        int stage = 0;
        for (double g = 1e-2;; g *= 0.1, ++stage) {
            const bool final_stage = g <= opts.gmin * (1.0 + 1e-9) ||
                                     g <= 1e-14 || stage >= kMaxGminStages;
            const double g_eff = final_stage ? opts.gmin : g;
            const int iters = detail::newton_raphson(
                circuit, as, ctx, opts, g_eff, x, &attempt.residual);
            attempt.iterations += std::abs(iters);
            ok = iters > 0;
            if (!ok || final_stage)
                break;
        }
        attempt.converged = ok;
        result.iterations += attempt.iterations;
        result.attempts.push_back(std::move(attempt));
        if (ok) {
            result.converged = true;
            result.strategy = "gmin-stepping";
            result.x = std::move(x);
            return result;
        }
        last_x = std::move(x);
    }

    {
        const SolveErrorCode status = ctx.cancellation_status();
        if (status != SolveErrorCode::kNone)
            return make_cancelled_dc(ctx, status, time, std::move(last_x),
                                     std::move(result.attempts),
                                     result.iterations);
    }

    // Strategy 3: source stepping — ramp all sources from zero.
    {
        StrategyAttempt attempt;
        attempt.name = "source-stepping";
        la::Vector x(n, 0.0);
        bool ok = true;
        for (double lambda = 0.05; lambda <= 1.0 + 1e-12; lambda += 0.05) {
            AnalysisState ramped = as;
            ramped.source_scale = std::min(lambda, 1.0);
            const int iters = detail::newton_raphson(
                circuit, ramped, ctx, opts, opts.gmin, x, &attempt.residual);
            attempt.iterations += std::abs(iters);
            if (iters < 0) {
                ok = false;
                break;
            }
        }
        attempt.converged = ok;
        result.iterations += attempt.iterations;
        result.attempts.push_back(std::move(attempt));
        if (ok) {
            result.converged = true;
            result.strategy = "source-stepping";
            result.x = std::move(x);
            return result;
        }
        last_x = std::move(x);
    }

    {
        const SolveErrorCode status = ctx.cancellation_status();
        if (status != SolveErrorCode::kNone)
            return make_cancelled_dc(ctx, status, time, std::move(last_x),
                                     std::move(result.attempts),
                                     result.iterations);
    }

    result.converged = false;
    result.strategy = "failed";
    SolveError err;
    err.code = SolveErrorCode::kNonConvergence;
    err.message = "dc operating point: all fallback strategies exhausted";
    err.strategies = result.attempts;
    err.time = time;
    err.last_residual = result.attempts.back().residual;
    err.last_iterate = std::move(last_x);
    result.error = std::move(err);
    return result;
}

} // namespace tfetsram::spice
