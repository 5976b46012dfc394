// Microbenchmark harness for the solver hot paths. Ten small, fixed
// workloads — cold DC operating point, warm-started DC re-solve, a full
// write transient, a WLcrit bisection, an SNM butterfly trace, a
// 64-sample Monte-Carlo batch, an 8x8-array DC initialization run
// once per linear kernel (dense vs sparse, pinned per task through
// TaskSpec::sim), a sparse-only 64x64-array DC initialization that
// stresses the ordering/static-pivot/batched-eval fast paths at scale,
// and an adaptive importance-sampled rare-event yield estimate —
// each metered with wall time and the ambient context's
// solver_stats() counters (MNA assemblies, LU factorizations, line-search
// backtracks, NR iterations, DC/transient solves). Results land as a console table, a
// CSV, and BENCH_microbench.json via the runner/telemetry plumbing, so
// successive commits leave comparable trajectory points (docs/SOLVER.md
// explains how to read them).
//
// Every task is uncacheable by construction (empty CacheKey): a
// measurement served from the result cache would be a replay, not a
// measurement. ci.sh additionally runs this under TFETSRAM_CACHE=off.

#include <chrono>
#include <cmath>

#include "array/array.hpp"
#include "figures.hpp"
#include "mc/yield.hpp"
#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/solver_select.hpp"
#include "spice/stats.hpp"
#include "sram/snm.hpp"
#include "util/contracts.hpp"

namespace tfetsram::bench {

namespace {

using clk = std::chrono::steady_clock;

/// Counter/wall-time delta of one metered workload.
struct Meter {
    spice::SolverStats stats;
    double wall_s = 0.0;
    std::size_t ops = 0;
};

/// Run `fn` `ops` times and capture the solver-stat and wall-time deltas
/// on this thread.
template <typename Fn>
Meter metered(std::size_t ops, Fn&& fn) {
    Meter m;
    m.ops = ops;
    const spice::SolverStats before = spice::solver_stats();
    const auto t0 = clk::now();
    for (std::size_t i = 0; i < ops; ++i)
        fn(i);
    m.wall_s = std::chrono::duration<double>(clk::now() - t0).count();
    m.stats = spice::solver_stats() - before;
    return m;
}

/// Serialize a meter into a TaskResult (totals plus the derived per-op and
/// per-iteration ratios the perf trajectory tracks).
runner::TaskResult to_result(const std::string& name, const Meter& m) {
    auto per_op = [&](std::uint64_t v) {
        return format_sci(static_cast<double>(v) /
                              static_cast<double>(m.ops),
                          4);
    };
    runner::TaskResult result;
    result.set("ops", std::to_string(m.ops));
    result.set("wall", format_si(m.wall_s, "s"));
    result.set("assemblies/op", per_op(m.stats.assemblies));
    result.set("lu/op", per_op(m.stats.lu_factorizations));
    result.set("nr_iters/op", per_op(m.stats.nr_iterations));
    result.set("dc_solves/op", per_op(m.stats.dc_solves));
    const double per_iter =
        m.stats.nr_iterations > 0
            ? static_cast<double>(m.stats.assemblies) /
                  static_cast<double>(m.stats.nr_iterations)
            : 0.0;
    result.set("assemblies/nr_iter", format_sci(per_iter, 4));
    result.rows.push_back(
        {name, std::to_string(m.ops), format_sci(m.wall_s, 6),
         std::to_string(m.stats.assemblies),
         std::to_string(m.stats.lu_factorizations),
         std::to_string(m.stats.nr_iterations),
         std::to_string(m.stats.line_search_backtracks),
         std::to_string(m.stats.dc_solves),
         std::to_string(m.stats.transient_solves),
         std::to_string(m.stats.transient_steps)});
    return result;
}

/// Uncacheable task boilerplate: microbenchmarks always re-measure.
runner::TaskSpec bench_task(const std::string& id, runner::TaskId models,
                            std::function<runner::TaskResult()> fn) {
    runner::TaskSpec spec;
    spec.id = id;
    spec.deps = {models};
    spec.fn = std::move(fn);
    return spec;
}

} // namespace

int run_microbench(const runner::RunnerConfig& config) {
    runner::RunnerConfig cfg = config;
    cfg.run_name = "microbench";
    banner("Microbench",
           "solver hot-path baselines (counters per docs/SOLVER.md)");

    const sram::MetricOptions opts;
    const sram::CellConfig cell_cfg =
        sram::proposed_design(0.8, standard_models()).config;

    runner::Runner r(cfg);
    runner::TaskId models;
    {
        runner::TaskSpec spec;
        spec.id = "build_models";
        spec.setup_only = true;
        spec.fn = [] {
            standard_models();
            return runner::TaskResult{};
        };
        models = r.add(std::move(spec));
    }

    std::vector<runner::TaskId> tasks;
    std::vector<std::string> names;

    // 1. Cold DC operating point: hold state from a zero initial guess,
    // the workload behind every sweep point's first solve.
    names.push_back("dc_cold");
    tasks.push_back(r.add(bench_task("dc_cold", models, [cell_cfg, opts] {
        sram::SramCell cell = sram::build_cell(cell_cfg);
        sram::program_hold(cell);
        const Meter m = metered(20, [&](std::size_t) {
            const sram::HoldState hs =
                sram::solve_hold_state(cell, true, opts.solver);
            TFET_ASSERT(hs.converged && hs.state_ok);
        });
        return to_result("dc_cold", m);
    })));

    // 2. Warm DC re-solve: solve once, then re-solve from the solution —
    // the bisection/sweep warm-start scenario the hot-path optimization
    // targets (ideal cost: one assembly, one LU, one NR iteration).
    names.push_back("dc_resolve");
    tasks.push_back(r.add(bench_task("dc_resolve", models, [cell_cfg, opts] {
        sram::SramCell cell = sram::build_cell(cell_cfg);
        sram::program_hold(cell);
        const sram::HoldState hs =
            sram::solve_hold_state(cell, true, opts.solver);
        TFET_ASSERT(hs.converged && hs.state_ok);
        la::Vector x = hs.x;
        const Meter m = metered(100, [&](std::size_t) {
            const spice::DcResult d =
                spice::solve_dc(cell.circuit, spice::ambient_context(),
                                opts.solver, 0.0, &x);
            TFET_ASSERT(d.converged);
        });
        return to_result("dc_resolve", m);
    })));

    // 3. One write transient (hold solve + Newton per accepted step).
    names.push_back("transient_write");
    tasks.push_back(
        r.add(bench_task("transient_write", models, [cell_cfg, opts] {
            sram::SramCell cell = sram::build_cell(cell_cfg);
            const Meter m = metered(5, [&](std::size_t) {
                const sram::WriteOutcome out = sram::attempt_write(
                    cell, 300e-12, sram::Assist::kNone, opts);
                TFET_ASSERT(out.simulated);
            });
            return to_result("transient_write", m);
        })));

    // 4. WLcrit bisection: the repeated-write workload whose redundant
    // hold-state solves the caching layer removes (dc_solves/op should
    // track transient_solves/op plus a constant, not a multiple).
    names.push_back("wlcrit_bisection");
    tasks.push_back(
        r.add(bench_task("wlcrit_bisection", models, [cell_cfg, opts] {
            sram::SramCell cell = sram::build_cell(cell_cfg);
            const Meter m = metered(1, [&](std::size_t) {
                const double wl = sram::critical_wordline_pulse(
                    cell, sram::Assist::kNone, opts);
                TFET_ASSERT(std::isfinite(wl));
            });
            return to_result("wlcrit_bisection", m);
        })));

    // 5. SNM butterfly trace: a long warm-started DC continuation sweep.
    names.push_back("snm_trace");
    tasks.push_back(r.add(bench_task("snm_trace", models, [cell_cfg, opts] {
        const Meter m = metered(1, [&](std::size_t) {
            const sram::SnmResult snm = sram::static_noise_margin(
                cell_cfg, sram::SnmMode::kHold, 41, opts.solver);
            TFET_ASSERT(snm.valid);
        });
        return to_result("snm_trace", m);
    })));

    // 6. 64-sample Monte-Carlo batch over a DC-only metric: exercises the
    // per-sample rebuild + nominal-seed warm-start path. Serial so the
    // counters all land on this task's thread.
    names.push_back("mc_batch64");
    tasks.push_back(r.add(bench_task("mc_batch64", models, [cell_cfg, opts] {
        const mc::VariationSpec vspec;
        const mc::TfetVariationSampler sampler(vspec);
        const Meter m = metered(1, [&](std::size_t) {
            const mc::McResult res = mc::run_monte_carlo(
                spice::ambient_context(), cell_cfg, sampler, 64, 0xB3Cu,
                [&](sram::SramCell& cell) {
                    return sram::worst_hold_static_power(cell, opts);
                },
                /*threads=*/1);
            TFET_ASSERT(res.n_censored == 0);
        });
        return to_result("mc_batch64", m);
    })));

    // 7/8. Array-scale DC initialization, once per linear kernel: the same
    // 8x8 array (a few hundred MNA unknowns) with the backend pinned
    // through the task's own SimContext (TaskSpec::sim) rather than any
    // process-wide override, so the two tasks could even run concurrently.
    // Identical physics and Newton trajectory, different kernel — the
    // wall-time gap is the kernel-selection trade docs/SOLVER.md
    // documents, and the reason kAuto routes arrays sparse.
    for (const bool sparse : {false, true}) {
        const std::string id = sparse ? "array8x8_sparse" : "array8x8_dense";
        names.push_back(id);
        runner::TaskSpec spec = bench_task(id, models, [cell_cfg, id] {
            array::ArrayConfig acfg;
            acfg.rows = 8;
            acfg.cols = 8;
            acfg.cell = cell_cfg;
            acfg.read_assist = sram::Assist::kRaGndLowering;
            std::vector<std::vector<bool>> data(
                acfg.rows, std::vector<bool>(acfg.cols));
            for (std::size_t rr = 0; rr < acfg.rows; ++rr)
                for (std::size_t cc = 0; cc < acfg.cols; ++cc)
                    data[rr][cc] = (rr + cc) % 2 == 0;
            const Meter m = metered(3, [&](std::size_t) {
                array::SramArray arr(acfg);
                TFET_ASSERT(arr.initialize(data));
            });
            return to_result(id, m);
        });
        spice::SimConfig sim = cfg.sim;
        sim.mode = sparse ? spice::SolverMode::kSparse
                          : spice::SolverMode::kDense;
        spec.sim = std::move(sim);
        tasks.push_back(r.add(std::move(spec)));
    }

    // 9. Array-scale stress point for the sparse kernel alone: a flat
    // 64x64 array (thousands of MNA unknowns — far past dense viability)
    // initialized once. This is where the fill-reducing ordering, the
    // static-pivot refactor path, and the batched device sweep earn their
    // keep; ci.sh gates its wall time against the checked-in baseline.
    {
        names.push_back("array64x64");
        runner::TaskSpec spec = bench_task("array64x64", models, [cell_cfg] {
            array::ArrayConfig acfg;
            acfg.rows = 64;
            acfg.cols = 64;
            acfg.cell = cell_cfg;
            acfg.read_assist = sram::Assist::kRaGndLowering;
            std::vector<std::vector<bool>> data(
                acfg.rows, std::vector<bool>(acfg.cols));
            for (std::size_t rr = 0; rr < acfg.rows; ++rr)
                for (std::size_t cc = 0; cc < acfg.cols; ++cc)
                    data[rr][cc] = (rr + cc) % 2 == 0;
            const Meter m = metered(1, [&](std::size_t) {
                array::SramArray arr(acfg);
                TFET_ASSERT(arr.initialize(data));
            });
            return to_result("array64x64", m);
        });
        spice::SimConfig sim = cfg.sim;
        sim.mode = spice::SolverMode::kSparse;
        spec.sim = std::move(sim);
        tasks.push_back(r.add(std::move(spec)));
    }

    // 10. Rare-event yield estimation end to end: adaptive
    // importance-sampled tail probability of worst-case hold power through
    // mc::run_monte_carlo, on coarse 121-point tables so the workload
    // meters estimator overhead rather than table extraction. The failure
    // surface is self-calibrated (metric beyond its own 4-sigma log-linear
    // projection), so the workload stays meaningful if the hold-power
    // model shifts. ci.sh gates its wall time against the baseline.
    names.push_back("mc_yield");
    tasks.push_back(r.add(bench_task("mc_yield", models, [cell_cfg, opts] {
        mc::VariationSpec vspec;
        vspec.table_spec.points = 121;
        const mc::TfetVariationSampler sampler(vspec);
        const auto metric = [&](sram::SramCell& cell) {
            return sram::worst_hold_static_power(cell, opts);
        };
        const auto eval_at = [&](double u) {
            sram::CellConfig c = cell_cfg;
            c.models = sampler.sample_at(u).models;
            sram::SramCell cell = sram::build_cell(c);
            return metric(cell);
        };
        const double p0 = eval_at(0.0);
        const double slope =
            (std::log(eval_at(2.0)) - std::log(eval_at(-2.0))) / 4.0;
        TFET_ASSERT(p0 > 0.0 && std::isfinite(slope) && slope != 0.0);

        mc::CellYieldProblem problem;
        problem.config = cell_cfg;
        problem.variation = vspec;
        problem.metric = metric;
        problem.fails = [p0, slope](double v) {
            return (std::log(v) - std::log(p0)) / slope > 4.0;
        };
        // t(u) ~ u under the log-linear model — the slope's sign cancels
        // in t, so the failure region sits at u > 4 for either polarity.
        mc::YieldOptions yopts;
        yopts.proposal = mc::GaussianMixture::shifted(4.0);
        yopts.batch = 16;
        yopts.min_samples = 32;
        yopts.max_samples = 192;
        yopts.min_failures = 4;
        yopts.target_rel_halfwidth = 0.5;

        mc::YieldEstimate est;
        const Meter m = metered(1, [&](std::size_t) {
            est = mc::estimate_cell_yield(spice::ambient_context(), problem,
                                          yopts, 0x71E1Du, /*threads=*/1);
        });
        TFET_ASSERT(est.n_samples >= 32 && est.n_censored == 0);
        runner::TaskResult result = to_result("mc_yield", m);
        result.set("bench:yield_p_fail", format_sci(est.p_fail, 6));
        result.set("bench:yield_lower", format_sci(est.lower, 6));
        result.set("bench:yield_upper", format_sci(est.upper, 6));
        result.set("bench:yield_sigma_level",
                   format_sci(est.sigma_level, 6));
        result.set("bench:yield_n_samples", std::to_string(est.n_samples));
        result.set("bench:yield_ess", format_sci(est.ess, 6));
        return result;
    })));

    r.run();

    auto csv = open_csv("microbench", cfg);
    csv.write_row(std::vector<std::string>{
        "workload", "ops", "wall_s", "assemblies", "lu_factorizations",
        "nr_iterations", "line_search_backtracks", "dc_solves",
        "transient_solves", "transient_steps"});
    TablePrinter table({"workload", "ops", "wall", "asm/op", "lu/op",
                        "nr/op", "dc/op", "asm/nr_iter"});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const runner::TaskId id = tasks[i];
        table.add_row({names[i], value_or(r, id, "ops", "QUARANTINED"),
                       value_or(r, id, "wall", "-"),
                       value_or(r, id, "assemblies/op", "-"),
                       value_or(r, id, "lu/op", "-"),
                       value_or(r, id, "nr_iters/op", "-"),
                       value_or(r, id, "dc_solves/op", "-"),
                       value_or(r, id, "assemblies/nr_iter", "-")});
        for (const auto& row : r.result(id).rows)
            csv.write_row(row);
    }
    std::cout << table.render();

    expectation(
        "assemblies/nr_iter stays at 1.0 plus the backtrack rate (one "
        "assembly per accepted Newton iterate); dc_resolve costs one "
        "assembly/LU/iteration per warm re-solve; wlcrit_bisection's "
        "dc_solves track its transient count plus a small constant (the "
        "hold state is solved once, not once per bisection step); "
        "array8x8_sparse beats array8x8_dense on wall time at identical "
        "iteration counts (same Newton trajectory, cheaper linear kernel).");
    return 0;
}

} // namespace tfetsram::bench
