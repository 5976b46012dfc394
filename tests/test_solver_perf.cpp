// Solver performance-contract and edge-case regression tests.
//
// The contract half pins the counters docs/SOLVER.md documents: a healthy
// converged Newton solve assembles each iterate exactly once (k + backtracks
// assemblies, k LU factorizations for a k-iteration solve), a warm re-solve
// from a converged point costs exactly one iteration, and the WLcrit
// bisection solves the pre-write hold state once rather than once per
// attempt. These tests fail against the pre-optimization solver (3 assemblies
// / 2 LU per warm re-solve; one hold solve per bisection attempt).
//
// The regression half covers three edge-case bugs fixed alongside:
//  * gmin-stepping with opts.gmin = 0 walked ~320 denormal stages because
//    its exact `g == gmin` termination test never fired,
//  * breakpoint handling used an absolute 1e-21 s tolerance, below one ulp
//    of t past ~1 ms, so nominally-equal breakpoints computed via different
//    floating-point paths forced attosecond micro-steps,
//  * TransientResult::min_difference reported +infinity for windows with no
//    trace data, which margin metrics would read as an infinite margin.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "device/models.hpp"
#include "la/matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/stats.hpp"
#include "spice/transient.hpp"
#include "sram/cell.hpp"
#include "sram/metrics.hpp"
#include "sram/operations.hpp"
#include "support/wlcrit_reference.hpp"
#include "util/fault.hpp"

namespace tfetsram {
namespace {

device::ModelSet models() {
    static const device::ModelSet set = device::make_model_set({}, false);
    return set;
}

sram::SramCell make_cell() {
    sram::CellConfig cfg;
    cfg.kind = sram::CellKind::kTfet6T;
    cfg.access = sram::AccessDevice::kInwardP;
    cfg.vdd = 0.8;
    cfg.beta = 0.6;
    cfg.models = models();
    return sram::build_cell(cfg);
}

spice::Circuit divider() {
    spice::Circuit c;
    const spice::NodeId top = c.add_node("top");
    const spice::NodeId mid = c.add_node("mid");
    c.add_vsource("V1", top, spice::kGround, spice::Waveform::dc(1.0));
    c.add_resistor("R1", top, mid, 1e3);
    c.add_resistor("R2", mid, spice::kGround, 3e3);
    return c;
}

spice::SolverStats metered_since(const spice::SolverStats& before) {
    return spice::solver_stats() - before;
}

// ------------------------------------------------------ assembly contract

TEST(SolverPerf, ConvergedLinearSolveAssemblesEachIterateOnce) {
    spice::Circuit c = divider();
    const spice::SolverStats before = spice::solver_stats();
    const spice::DcResult r = solve_dc(c, spice::ambient_context(), {});
    const spice::SolverStats d = metered_since(before);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.strategy, "newton");
    EXPECT_EQ(d.dc_solves, 1u);
    EXPECT_EQ(d.lu_factorizations, d.nr_iterations);
    EXPECT_EQ(d.assemblies, d.nr_iterations + d.line_search_backtracks);
}

TEST(SolverPerf, ConvergedCellHoldSolveAssemblesEachIterateOnce) {
    sram::SramCell cell = make_cell();
    sram::program_hold(cell);
    const spice::SolverStats before = spice::solver_stats();
    const sram::HoldState hs =
        sram::solve_hold_state(cell, /*q_high=*/true, spice::SolverOptions{});
    const spice::SolverStats d = metered_since(before);
    ASSERT_TRUE(hs.converged);
    ASSERT_TRUE(hs.state_ok);
    // The pre-optimization loop re-assembled the accepted iterate inside the
    // line search and again in the wrapper: assemblies ran ~1.25x iterations
    // on this workload. Now every converged solve in the chain obeys
    // k + backtracks assemblies, k LU factorizations exactly.
    EXPECT_EQ(d.lu_factorizations, d.nr_iterations);
    EXPECT_EQ(d.assemblies, d.nr_iterations + d.line_search_backtracks);
}

TEST(SolverPerf, WarmResolveFromSolutionCostsOneIteration) {
    sram::SramCell cell = make_cell();
    sram::program_hold(cell);
    const sram::HoldState hs =
        sram::solve_hold_state(cell, /*q_high=*/true, spice::SolverOptions{});
    ASSERT_TRUE(hs.converged);

    const spice::SolverStats before = spice::solver_stats();
    const spice::DcResult r =
        solve_dc(cell.circuit, spice::ambient_context(), {}, 0.0, &hs.x);
    const spice::SolverStats d = metered_since(before);
    ASSERT_TRUE(r.converged);
    // Re-solving from a converged point must recognize the solution on the
    // first iterate: one assembly (the entering residual), one LU, one
    // iteration. The pre-optimization gate (`iter >= 2`) forced a second
    // iteration and its line search: 3 assemblies / 2 LU / 2 iterations.
    EXPECT_EQ(d.dc_solves, 1u);
    EXPECT_EQ(d.nr_iterations, 1u);
    EXPECT_EQ(d.assemblies, 1u);
    EXPECT_EQ(d.lu_factorizations, 1u);
}

TEST(SolverPerf, WlcritBisectionSolvesHoldStateOnce) {
    sram::SramCell cell = make_cell();
    const spice::SolverStats before = spice::solver_stats();
    const double wlcrit = sram::critical_wordline_pulse(cell);
    const spice::SolverStats d = metered_since(before);
    ASSERT_TRUE(std::isfinite(wlcrit));
    EXPECT_GT(wlcrit, 0.0);
    // The hold state is solved once for the whole bisection: two dc solves
    // (cold settling + forced state), three if the crawl fallback engages.
    // Only the first attempt solves its t = 0 operating point; every later
    // one resumes the first attempt's transient tape past it. Pre-fix every
    // attempt re-solved the hold state (dc_solves ran 3x the transient
    // count, 42 vs 14 on this workload), and before the tape every attempt
    // solved its own t = 0 point.
    EXPECT_GE(d.transient_solves, 4u);
    EXPECT_LE(d.dc_solves, 4u);
}

TEST(SolverPerf, WlcritBisectionReplaysMostOfItsSteps) {
    // The same pulse widths, one independent attempt_write each: their
    // accepted steps are what the resumed bisection either integrates or
    // replays from its tape, and the shared prefixes are most of them.
    sram::SramCell plain_cell = make_cell();
    const sram::MetricOptions opts;
    std::vector<double> pulses;
    const spice::SolverStats before_plain = spice::solver_stats();
    const double plain = testing_support::wlcrit_by_plain_attempts(
        plain_cell, sram::Assist::kNone, opts, &pulses);
    const spice::SolverStats p = metered_since(before_plain);
    ASSERT_TRUE(std::isfinite(plain));
    ASSERT_GE(pulses.size(), 4u);
    EXPECT_EQ(p.transient_steps_replayed, 0u);

    sram::SramCell cell = make_cell();
    const spice::SolverStats before = spice::solver_stats();
    const double wlcrit =
        sram::critical_wordline_pulse(cell, sram::Assist::kNone, opts);
    const spice::SolverStats d = metered_since(before);
    EXPECT_EQ(wlcrit, plain);
    EXPECT_EQ(d.transient_solves, pulses.size());
    EXPECT_EQ(d.transient_steps + d.transient_steps_replayed,
              p.transient_steps);
    EXPECT_GE(2 * d.transient_steps_replayed, p.transient_steps);
}

TEST(SolverPerf, ColdGuessCacheSkipsSettlingSolve) {
    sram::SramCell cell = make_cell();
    sram::program_hold(cell);
    la::Vector cold;

    const spice::SolverStats before1 = spice::solver_stats();
    const sram::HoldState hs0 = sram::solve_hold_state(
        cell, /*q_high=*/false, spice::SolverOptions{}, &cold);
    const spice::SolverStats d1 = metered_since(before1);
    ASSERT_TRUE(hs0.converged);
    ASSERT_TRUE(hs0.state_ok);
    EXPECT_EQ(d1.dc_solves, 2u); // cold settling + forced state
    EXPECT_EQ(cold.size(), cell.circuit.num_unknowns());

    const spice::SolverStats before2 = spice::solver_stats();
    const sram::HoldState hs1 = sram::solve_hold_state(
        cell, /*q_high=*/true, spice::SolverOptions{}, &cold);
    const spice::SolverStats d2 = metered_since(before2);
    ASSERT_TRUE(hs1.converged);
    ASSERT_TRUE(hs1.state_ok);
    EXPECT_EQ(d2.dc_solves, 1u); // settling solve replayed from the cache
}

// ------------------------------------------------- gmin-stepping runaway

TEST(GminStepping, ZeroGminTerminatesInBoundedStages) {
    spice::Circuit c = divider();
    spice::SolverOptions opts;
    opts.gmin = 0.0; // a valid request: solve with no shunt at all
    // Force the plain-Newton strategy (call index 0) to fail so the solve
    // falls through to gmin stepping; the stages themselves run normally.
    fault::ScopedFaultInjection inject("newton@0");
    const spice::SolverStats before = spice::solver_stats();
    const spice::DcResult r = solve_dc(c, spice::ambient_context(), opts);
    const spice::SolverStats d = metered_since(before);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.strategy, "gmin-stepping");
    EXPECT_NEAR(spice::node_voltage(r.x, c.node("mid")), 0.75, 1e-6);
    // Pre-fix the relaxation loop's exact `g == gmin` test never fired for
    // gmin = 0: `g *= 0.1` only reaches 0.0 after ~320 stages of denormal
    // underflow, each a full warm-started Newton solve (~650 iterations).
    // The relative floor + stage cap bound it to ~13 stages.
    EXPECT_LT(d.nr_iterations, 100u);
    EXPECT_LT(r.iterations, 100);
}

// ------------------------------------------- breakpoint tolerance vs ulp

TEST(TransientBreakpoints, UlpSpacedBreakpointsDoNotForceMicroSteps) {
    // Two pulse edges at nominally the same instant, computed through
    // different floating-point paths: 0.3 and 0.1 + 0.2 differ by one ulp
    // (5.55e-17 s). Such twins arise whenever two sources derive the same
    // edge time from different arithmetic. Pre-fix, the absolute 1e-21 s
    // breakpoint tolerance — far below one ulp at 0.3 s — made the solver
    // land on the first twin, then take a one-ulp "step" to the second.
    const double b1 = 0.3;
    const double b2 = 0.1 + 0.2;
    ASSERT_NE(b1, b2); // the premise: distinct doubles, same nominal time

    spice::Circuit c;
    const spice::NodeId s1 = c.add_node("s1");
    const spice::NodeId n1 = c.add_node("n1");
    const spice::NodeId s2 = c.add_node("s2");
    const spice::NodeId n2 = c.add_node("n2");
    c.add_vsource("V1", s1, spice::kGround,
                  spice::Waveform::pulse(0.0, 1.0, b1, 1e-3, 1.0, 1e-3));
    c.add_vsource("V2", s2, spice::kGround,
                  spice::Waveform::pulse(0.0, 1.0, b2, 1e-3, 1.0, 1e-3));
    c.add_resistor("R1", s1, n1, 1e3);
    c.add_capacitor("C1", n1, spice::kGround, 1e-6);
    c.add_resistor("R2", s2, n2, 1e3);
    c.add_capacitor("C2", n2, spice::kGround, 1e-6);

    spice::SolverOptions opts;
    opts.dt_initial = 1e-6;
    opts.dt_max = 1e-2; // seconds-scale window needs ms-scale steps
    const spice::TransientResult tr =
        solve_transient(c, spice::ambient_context(), opts, 0.35);
    ASSERT_TRUE(tr.completed) << tr.message;

    // With the breakpoint tolerance relative to t, the twin breakpoints are
    // consumed together and every accepted step stays macroscopic. Pre-fix
    // the trace contains a 5.55e-17 s step between the twins.
    const std::vector<double>& t = tr.times();
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_GT(t[i] - t[i - 1], 1e-15)
            << "micro-step between samples " << i - 1 << " and " << i
            << " at t=" << t[i - 1];
    // The stimulus still arrived: both RC outputs charged up after the edge.
    EXPECT_GT(tr.final_voltage(n1), 0.9);
    EXPECT_GT(tr.final_voltage(n2), 0.9);
}

// --------------------------------------------- min_difference empty window

TEST(MinDifference, WindowBeyondTraceIsNaN) {
    spice::TransientResult tr;
    tr.append(0.0, la::Vector{1.0, 0.0});
    tr.append(1.0, la::Vector{1.0, 0.2});
    // Pre-fix a window disjoint from the trace returned +infinity (the min
    // over zero samples), which DRNM would report as an infinite margin.
    EXPECT_TRUE(std::isnan(tr.min_difference(1, 2, 2.0, 3.0)));
    EXPECT_TRUE(std::isnan(tr.min_difference(1, 2, -2.0, -1.0)));
}

TEST(MinDifference, EmptyTraceIsNaN) {
    const spice::TransientResult tr;
    EXPECT_TRUE(std::isnan(tr.min_difference(1, 2, 0.0, 1.0)));
}

TEST(MinDifference, InvertedWindowIsNaN) {
    spice::TransientResult tr;
    tr.append(0.0, la::Vector{1.0, 0.0});
    tr.append(1.0, la::Vector{1.0, 0.2});
    EXPECT_TRUE(std::isnan(tr.min_difference(1, 2, 0.8, 0.2)));
}

TEST(MinDifference, OverlappingWindowStillMeasures) {
    spice::TransientResult tr;
    tr.append(0.0, la::Vector{1.0, 0.0});
    tr.append(1.0, la::Vector{1.0, 0.5});
    tr.append(2.0, la::Vector{1.0, 0.0});
    EXPECT_NEAR(tr.min_difference(1, 2, 0.0, 2.0), 0.5, 1e-12);
    // A window covering only the trace's tail interpolates its edges.
    EXPECT_NEAR(tr.min_difference(1, 2, 1.5, 3.0), 0.75, 1e-12);
}

} // namespace
} // namespace tfetsram
