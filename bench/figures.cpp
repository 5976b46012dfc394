// Runner-based implementations of the ported figures. The pattern shared
// by all three: build one setup task for the tabulated model set, one
// cacheable task per sweep point keyed on every input that matters, run
// the graph, then assemble console table + CSV from the (possibly
// replayed) TaskResults — so a warm run is byte-identical to the cold one.

#include "figures.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "array/array.hpp"
#include "bench_common.hpp"
#include "hier/engine.hpp"
#include "mc/statistics.hpp"
#include "mc/yield.hpp"
#include "spice/solve_error.hpp"

namespace tfetsram::bench {

namespace {

/// Setup node shared by every sweep: forces the one-per-process model
/// tables to build before the sweep tasks fan out (they'd otherwise
/// serialize on the magic static the first time through).
runner::TaskId add_models_task(runner::Runner& r) {
    runner::TaskSpec spec;
    spec.id = "build_models";
    spec.setup_only = true;
    spec.fn = [] {
        standard_models();
        return runner::TaskResult{};
    };
    return r.add(std::move(spec));
}

/// Censoring-adjusted 95% yield interval, formatted "p [lo, hi]". `passes`
/// of the `samples - censored` evaluated samples passed; the bounds treat
/// the censored samples as worst-case in each direction.
std::string censored_yield_text(std::size_t passes, std::size_t samples,
                                std::size_t censored) {
    const std::size_t evaluated = samples - censored;
    if (evaluated == 0)
        return "n/a (all censored)";
    const mc::YieldInterval yi =
        mc::censored_yield_interval(passes, evaluated, censored);
    return format_sci(yi.point, 3) + " [" + format_sci(yi.lower, 3) + ", " +
           format_sci(yi.upper, 3) + "]";
}

} // namespace

// ------------------------------------------------------------- Fig. 6(e)

int run_fig6_write_assist(const runner::RunnerConfig& config) {
    runner::RunnerConfig cfg = config;
    cfg.run_name = "fig6_write_assist";
    banner("Fig. 6(e)",
           "write-assist effectiveness: WLcrit vs beta (VDD = 0.8 V)");

    const sram::MetricOptions opts;
    const std::vector<double> betas = {1.0, 1.5, 2.0, 2.5, 3.0};

    runner::Runner r(cfg);
    const runner::TaskId models = add_models_task(r);
    // task ids laid out as points[beta_index][assist_index]
    std::vector<std::vector<runner::TaskId>> points;
    for (double beta : betas) {
        auto& row = points.emplace_back();
        for (sram::Assist a : sram::kWriteAssists) {
            runner::TaskSpec spec;
            spec.id = "wlcrit beta=" + format_sci(beta, 1) + " " +
                      sram::to_string(a);
            spec.deps = {models};
            spec.key = runner::CacheKey("fig6_wlcrit")
                           .add("model", device::kModelSetVersion)
                           .add("cell", "tfet6t")
                           .add("access", "inward_p")
                           .add("beta", beta)
                           .add("assist", sram::to_string(a));
            spec.fn = [beta, a, opts] {
                sram::CellConfig cell_cfg;
                cell_cfg.kind = sram::CellKind::kTfet6T;
                cell_cfg.access = sram::AccessDevice::kInwardP;
                cell_cfg.beta = beta;
                cell_cfg.models = standard_models();
                sram::SramCell cell = sram::build_cell(cell_cfg);
                const double wl =
                    sram::critical_wordline_pulse(cell, a, opts);
                // NaN is the metric's "simulation failed" sentinel (unlike
                // +inf, which is a legit write-failure outcome): surface it
                // as a structured solver error so the runner can retry or
                // quarantine this sweep point.
                if (std::isnan(wl)) {
                    spice::SolveError err;
                    err.code = spice::SolveErrorCode::kNonConvergence;
                    err.message = "wlcrit: transient simulation failed";
                    throw spice::SolveException(std::move(err));
                }
                runner::TaskResult result;
                result.set("csv", format_sci(wl, 8));
                result.set("pulse", core::format_pulse(wl));
                return result;
            };
            row.push_back(r.add(std::move(spec)));
        }
    }
    r.run();

    TablePrinter table([&] {
        std::vector<std::string> h = {"beta"};
        for (sram::Assist a : sram::kWriteAssists)
            h.push_back(sram::to_string(a));
        return h;
    }());
    auto csv = open_csv("fig6_write_assist", cfg);
    csv.write_row(std::vector<std::string>{"beta", "vdd_lowering",
                                           "gnd_raising", "wl_lowering",
                                           "bl_raising"});
    for (std::size_t b = 0; b < betas.size(); ++b) {
        std::vector<std::string> row = {format_sci(betas[b], 1)};
        std::vector<std::string> cells = {format_sci(betas[b], 8)};
        for (runner::TaskId id : points[b]) {
            row.push_back(value_or(r, id, "pulse", "QUARANTINED"));
            cells.push_back(value_or(r, id, "csv", "nan"));
        }
        table.add_row(row);
        csv.write_row(cells);
    }
    std::cout << table.render();

    expectation(
        "at low beta the access-strengthening assists (wordline lowering, "
        "bitline raising) give the smallest WLcrit; their advantage "
        "vanishes as beta grows, where weakening the pull-downs (GND "
        "raising — and in the paper also VDD lowering) wins. Deviation "
        "documented in EXPERIMENTS.md: in our device physics VDD lowering "
        "stays finite but degrades at large beta, because the unidirectional "
        "pull-up limits how fast the internal high node can track the "
        "lowered rail.");
    return 0;
}

// --------------------------------------------------------------- Fig. 10

int run_fig10_mc_read_assist(const runner::RunnerConfig& config) {
    runner::RunnerConfig cfg = config;
    cfg.run_name = "fig10_mc_read_assist";
    const std::size_t samples = mc::mc_samples_from_env(60);
    constexpr std::uint64_t kSeed = 0xF10u;
    banner("Fig. 10", "process variation vs read assists (beta = 0.6, " +
                          std::to_string(samples) + " samples)");
    const sram::MetricOptions opts;

    sram::CellConfig cell_cfg;
    cell_cfg.kind = sram::CellKind::kTfet6T;
    cell_cfg.access = sram::AccessDevice::kInwardP;
    cell_cfg.beta = 0.6;

    runner::Runner r(cfg);
    const runner::TaskId models = add_models_task(r);
    auto base_key = [&](const char* metric_name) {
        return runner::CacheKey("fig10_mc")
            .add("model", device::kModelSetVersion)
            .add("cell", "tfet6t")
            .add("access", "inward_p")
            .add("beta", cell_cfg.beta)
            .add("samples", samples)
            .add("seed", static_cast<std::size_t>(kSeed))
            .add("metric", metric_name);
    };

    // One task per read-assist technique; MC parallelism is across
    // techniques (each task's inner Monte-Carlo runs serially and is
    // deterministic in the seed either way).
    std::vector<runner::TaskId> drnm_tasks;
    for (sram::Assist a : sram::kReadAssists) {
        runner::TaskSpec spec;
        spec.id = std::string("mc_drnm ") + sram::to_string(a);
        spec.deps = {models};
        spec.key = base_key("drnm").add("assist", sram::to_string(a));
        spec.fn = [cell_cfg, a, opts, samples] {
            sram::CellConfig mc_cfg = cell_cfg;
            mc_cfg.models = standard_models();
            mc::VariationSpec vspec;
            const mc::TfetVariationSampler sampler(vspec);
            const mc::McResult res = mc::run_monte_carlo(
                spice::ambient_context(), mc_cfg, sampler, samples, kSeed,
                [&](sram::SramCell& cell) {
                    const auto d =
                        sram::dynamic_read_noise_margin(cell, a, opts);
                    // !valid means the solver never produced a verdict:
                    // throw so the MC driver retries and censors, instead
                    // of counting it as if it were a read flip.
                    if (!d.valid) {
                        spice::SolveError err;
                        err.code = spice::SolveErrorCode::kNonConvergence;
                        err.message = "drnm: read transient failed";
                        throw spice::SolveException(std::move(err));
                    }
                    // A flip is a legit failure outcome: report NaN so the
                    // summary counts it out of the moments.
                    if (d.flipped)
                        return std::nan("");
                    return d.drnm;
                },
                /*threads=*/1);
            runner::TaskResult result;
            for (std::size_t i = 0; i < res.samples.size(); ++i)
                result.rows.push_back({sram::to_string(a), std::to_string(i),
                                       res.censored[i]
                                           ? std::string("censored")
                                           : format_sci(res.samples[i], 6)});
            result.set("hist", res.histogram(12).render());
            result.set("mean", core::format_margin(res.summary.mean));
            result.set("stddev", core::format_margin(res.summary.stddev));
            result.set("min", core::format_margin(res.summary.min));
            result.set("max", core::format_margin(res.summary.max));
            result.set("flips", std::to_string(res.summary.n_infinite));
            result.set("censored", std::to_string(res.n_censored));
            result.set("yield", censored_yield_text(
                                    res.summary.count, samples,
                                    res.n_censored));
            return result;
        };
        drnm_tasks.push_back(r.add(std::move(spec)));
    }

    // Fig. 10(e): WLcrit under variation at the RA sizing.
    runner::TaskSpec wl_spec;
    wl_spec.id = "mc_wlcrit";
    wl_spec.deps = {models};
    wl_spec.key = base_key("wlcrit");
    wl_spec.fn = [cell_cfg, opts, samples] {
        sram::CellConfig mc_cfg = cell_cfg;
        mc_cfg.models = standard_models();
        mc::VariationSpec vspec;
        const mc::TfetVariationSampler sampler(vspec);
        const mc::McResult wl = mc::run_monte_carlo(
            spice::ambient_context(), mc_cfg, sampler, samples, kSeed,
            [&](sram::SramCell& cell) {
                const double p = sram::critical_wordline_pulse(
                    cell, sram::Assist::kNone, opts);
                // NaN = solver failure (censor via retry); +inf = genuine
                // write failure (legit data, kept).
                if (std::isnan(p)) {
                    spice::SolveError err;
                    err.code = spice::SolveErrorCode::kNonConvergence;
                    err.message = "wlcrit: transient simulation failed";
                    throw spice::SolveException(std::move(err));
                }
                return p;
            },
            /*threads=*/1);
        runner::TaskResult result;
        result.set("hist", wl.histogram(12).render());
        result.set("mean", core::format_pulse(wl.summary.mean));
        result.set("stddev", core::format_pulse(wl.summary.stddev));
        result.set("cv",
                   format_sci(wl.summary.stddev / wl.summary.mean, 2));
        result.set("failures", std::to_string(wl.summary.n_infinite));
        result.set("censored", std::to_string(wl.n_censored));
        result.set("yield", censored_yield_text(wl.summary.count, samples,
                                                wl.n_censored));
        return result;
    };
    const runner::TaskId wl_task = r.add(std::move(wl_spec));

    // Fig. 10 extension (ROADMAP item 3): a true failure-probability
    // estimate for WLcrit instead of a 64-sample histogram. The failure
    // surface is self-calibrated from the metric's log-linear tox
    // sensitivity — wl(u) ~ wl0 * exp(c u) from evaluations at u = 0, +-2
    // — and "failure" means WLcrit beyond its 4-sigma projection (or a
    // genuine +inf write failure). Importance sampling with a defensive
    // mixture shifted to the failing tail makes the tail reachable within
    // a histogram-sized solve budget.
    const std::size_t yield_budget =
        std::max<std::size_t>(mc::mc_samples_from_env(64), 32);
    runner::TaskSpec yield_spec;
    yield_spec.id = "mc_yield_wlcrit";
    yield_spec.deps = {models};
    yield_spec.key = base_key("yield_wlcrit")
                         .add("estimator", "is_shift4_defensive")
                         .add("budget", yield_budget);
    yield_spec.fn = [cell_cfg, opts, yield_budget] {
        sram::CellConfig mc_cfg = cell_cfg;
        mc_cfg.models = standard_models();
        const auto wl_metric = [opts](sram::SramCell& cell) {
            const double p = sram::critical_wordline_pulse(
                cell, sram::Assist::kNone, opts);
            if (std::isnan(p)) {
                spice::SolveError err;
                err.code = spice::SolveErrorCode::kNonConvergence;
                err.message = "yield: wlcrit transient failed";
                throw spice::SolveException(std::move(err));
            }
            return p;
        };

        const mc::TfetVariationSampler sampler(mc::VariationSpec{});
        const auto eval_at = [&](double u) {
            sram::CellConfig c = mc_cfg;
            c.models = sampler.sample_at(u).models;
            sram::SramCell cell = sram::build_cell(c);
            return wl_metric(cell);
        };
        const double wl0 = eval_at(0.0);
        const double wl_hi = eval_at(2.0);
        const double wl_lo = eval_at(-2.0);
        if (!(wl0 > 0.0) || !std::isfinite(wl_hi) || !std::isfinite(wl_lo)) {
            spice::SolveError err;
            err.code = spice::SolveErrorCode::kNonConvergence;
            err.message = "yield: calibration points not finite";
            throw spice::SolveException(std::move(err));
        }
        const double slope = (std::log(wl_hi) - std::log(wl_lo)) / 4.0;
        const double limit = wl0 * std::exp(4.0 * std::abs(slope));
        const double shift = slope < 0.0 ? -4.0 : 4.0;

        mc::CellYieldProblem problem;
        problem.config = mc_cfg;
        problem.variation = mc::VariationSpec{};
        problem.metric = wl_metric;
        problem.fails = [limit](double v) { return !(v <= limit); };

        mc::YieldOptions yopts;
        yopts.proposal = mc::GaussianMixture::shifted(shift);
        yopts.batch = 16;
        yopts.min_samples = 32;
        yopts.max_samples = yield_budget;
        yopts.min_failures = 4;
        yopts.target_rel_halfwidth = 0.5;
        const mc::YieldEstimate est = mc::estimate_cell_yield(
            spice::ambient_context(), problem, yopts, kSeed, /*threads=*/1);

        runner::TaskResult result;
        result.set("limit", core::format_pulse(limit));
        result.set("p_fail", format_sci(est.p_fail, 4));
        result.set("ci", "[" + format_sci(est.lower, 3) + ", " +
                             format_sci(est.upper, 3) + "]");
        result.set("sigma", format_sci(est.sigma_level, 3));
        result.set("samples", std::to_string(est.n_samples));
        result.set("fails", std::to_string(est.n_fail));
        result.set("censored", std::to_string(est.n_censored));
        result.set("converged", est.converged ? "yes" : "budget");
        result.set("bench:yield_p_fail", format_sci(est.p_fail, 6));
        result.set("bench:yield_lower", format_sci(est.lower, 6));
        result.set("bench:yield_upper", format_sci(est.upper, 6));
        result.set("bench:yield_upper_censored",
                   format_sci(est.upper_censored, 6));
        result.set("bench:yield_sigma_level", format_sci(est.sigma_level, 6));
        result.set("bench:yield_n_samples", std::to_string(est.n_samples));
        result.set("bench:yield_ess", format_sci(est.ess, 6));
        return result;
    };
    const runner::TaskId yield_task = r.add(std::move(yield_spec));
    r.run();

    auto csv = open_csv("fig10_mc_read_assist", cfg);
    csv.write_row(std::vector<std::string>{"technique", "sample", "drnm"});
    TablePrinter summary({"technique", "mean", "stddev", "min", "max",
                          "flips", "cens", "yield (95% CI)"});
    for (std::size_t t = 0; t < drnm_tasks.size(); ++t) {
        const runner::TaskId id = drnm_tasks[t];
        const runner::TaskResult& res = r.result(id);
        for (const auto& row : res.rows)
            csv.write_row(row);
        summary.add_row({sram::to_string(sram::kReadAssists[t]),
                         value_or(r, id, "mean", "QUARANTINED"),
                         value_or(r, id, "stddev", "-"),
                         value_or(r, id, "min", "-"),
                         value_or(r, id, "max", "-"),
                         value_or(r, id, "flips", "-"),
                         value_or(r, id, "censored", "-"),
                         value_or(r, id, "yield", "-")});
        std::cout << "-- DRNM occurrences, "
                  << sram::to_string(sram::kReadAssists[t]) << " --\n"
                  << value_or(r, id, "hist", "(quarantined)\n") << '\n';
    }
    std::cout << summary.render() << '\n';

    std::cout << "-- WLcrit occurrences (beta = 0.6, no WA needed) --\n"
              << value_or(r, wl_task, "hist", "(quarantined)\n");
    std::cout << "WLcrit spread: mean "
              << value_or(r, wl_task, "mean", "QUARANTINED") << ", stddev "
              << value_or(r, wl_task, "stddev", "-")
              << " (cv = " << value_or(r, wl_task, "cv", "-")
              << "), failures " << value_or(r, wl_task, "failures", "-")
              << ", censored " << value_or(r, wl_task, "censored", "-")
              << ", yield " << value_or(r, wl_task, "yield", "-") << "\n";

    std::cout << "WLcrit tail risk (importance-sampled, limit "
              << value_or(r, yield_task, "limit", "QUARANTINED")
              << "): p_fail " << value_or(r, yield_task, "p_fail", "-")
              << " 95% CI " << value_or(r, yield_task, "ci", "-") << " ("
              << value_or(r, yield_task, "sigma", "-") << " sigma, "
              << value_or(r, yield_task, "samples", "-") << " samples, "
              << value_or(r, yield_task, "fails", "-") << " fails, "
              << value_or(r, yield_task, "censored", "-") << " censored, "
              << value_or(r, yield_task, "converged", "-") << ")\n";

    expectation(
        "DRNM is minimally impacted by variation for all RA techniques; the "
        "WLcrit spread at beta = 0.6 is much smaller than in the WA study "
        "(Fig. 9) thanks to the much stronger access transistors. This "
        "motivates the final design: small beta + GND-lowering RA.");
    return 0;
}

// --------------------------------------------------------- array scaling

int run_array_scaling(const runner::RunnerConfig& config) {
    runner::RunnerConfig cfg = config;
    cfg.run_name = "array_scaling";
    banner("Array scaling",
           "write+read wall time vs array size (flat and mixed engines)");
    using clk = std::chrono::steady_clock;

    // Sizes up to 16x8 run flat (the regime the differential tests cover);
    // taller arrays route to the mixed-level engine (hier::ArrayEngine
    // kAuto), which is what carries the sweep to the paper-scale
    // 1024-cells-per-bitline column (docs/HIERARCHY.md).
    const std::vector<std::pair<std::size_t, std::size_t>> sizes = {
        {2, 2},  {4, 2},  {4, 4},    {8, 4},    {8, 8},
        {16, 8}, {32, 8}, {128, 16}, {512, 16}, {1024, 16}};

    runner::Runner r(cfg);
    const runner::TaskId models = add_models_task(r);
    std::vector<runner::TaskId> tasks;
    for (const auto& [rows, cols] : sizes) {
        runner::TaskSpec spec;
        spec.id = "array " + std::to_string(rows) + "x" +
                  std::to_string(cols);
        spec.deps = {models};
        // Note the timings below are part of the cached result: a warm run
        // replays the recorded cold measurement (by design — the CSV is a
        // record of the characterization, and byte-identical replay is the
        // cache's contract). Run with TFETSRAM_CACHE=off to re-measure.
        // schema v3: the sweep routes through hier::ArrayEngine; rows grew
        // engine + hier event-counter columns, and the solver columns now
        // describe the active partition on mixed points.
        spec.key = runner::CacheKey("array_scaling")
                       .add("schema", 3)
                       .add("model", device::kModelSetVersion)
                       .add("design", "proposed@0.8")
                       .add("read_assist", "ra_gnd_lowering")
                       .add("rows", rows)
                       .add("cols", cols);
        spec.fn = [rows = rows, cols = cols] {
            array::ArrayConfig acfg;
            acfg.rows = rows;
            acfg.cols = cols;
            acfg.cell = sram::proposed_design(0.8, standard_models()).config;
            acfg.read_assist = sram::Assist::kRaGndLowering;
            // Longer bitlines need a longer sensing window: the read
            // differential develops as one cell discharges a bitline cap
            // proportional to the row count, so at the default 400 ps a
            // >=128-row column never reaches the sense margin (the same
            // would hold flat — it's bitline physics, not the engine).
            // Scale the window with the rows beyond the 32-row reference.
            if (rows > 32)
                acfg.read_duration *= static_cast<double>(rows) / 32.0;
            hier::ArrayEngine eng(acfg);

            const auto t0 = clk::now();
            std::vector<std::vector<bool>> zeros(
                rows, std::vector<bool>(cols, false));
            const bool init_ok = eng.initialize(zeros);
            const auto t1 = clk::now();
            bool ok = init_ok;
            if (init_ok)
                ok = eng.write(rows / 2, cols / 2, true).ok;
            const auto t2 = clk::now();
            bool read_ok = false;
            if (ok) {
                const array::ReadResult rd = eng.read(rows / 2, cols / 2);
                read_ok = rd.ok && rd.value;
            }
            const auto t3 = clk::now();

            auto secs = [](clk::time_point a, clk::time_point b) {
                return std::chrono::duration<double>(b - a).count();
            };
            const bool functional = ok && read_ok;
            // Which linear kernel the governing system ran on — the whole
            // array flat, the per-operation active partition mixed — and
            // how sparse it was (docs/SOLVER.md, docs/HIERARCHY.md).
            const array::SolverInfo si = eng.solver_info();
            const bool sparse = si.kind == spice::SolverKind::kSparse;
            const hier::HierStats* hs = eng.hier_stats();
            runner::TaskResult result;
            result.set("engine", eng.mixed() ? "mixed" : "flat");
            result.set("transistors", std::to_string(eng.transistors()));
            result.set("unknowns", std::to_string(si.unknowns));
            result.set("init", format_si(secs(t0, t1), "s"));
            result.set("write", format_si(secs(t1, t2), "s"));
            result.set("read", format_si(secs(t2, t3), "s"));
            result.set("functional", functional ? "yes" : "NO");
            result.set("solver", sparse ? "sparse" : "dense");
            result.set("pattern_nnz", std::to_string(si.pattern_nnz));
            result.set("lu_nnz", std::to_string(si.lu_nnz));
            result.set("fill_ratio", format_sci(si.fill_ratio, 3));
            result.set("hier_promotions",
                       std::to_string(hs != nullptr ? hs->promotions : 0));
            result.set("hier_demotions",
                       std::to_string(hs != nullptr ? hs->demotions : 0));
            result.set(
                "hier_relinearizations",
                std::to_string(hs != nullptr ? hs->relinearizations : 0));
            result.set("hier_guard_retries",
                       std::to_string(hs != nullptr ? hs->guard_retries : 0));
            result.rows.push_back(
                {format_sci(static_cast<double>(rows), 8),
                 format_sci(static_cast<double>(cols), 8),
                 eng.mixed() ? "mixed" : "flat",
                 format_sci(static_cast<double>(eng.transistors()), 8),
                 format_sci(static_cast<double>(si.unknowns), 8),
                 format_sci(secs(t0, t1), 8), format_sci(secs(t1, t2), 8),
                 format_sci(secs(t2, t3), 8),
                 format_sci(functional ? 1.0 : 0.0, 8),
                 sparse ? "sparse" : "dense",
                 format_sci(static_cast<double>(si.pattern_nnz), 8),
                 format_sci(static_cast<double>(si.lu_nnz), 8),
                 format_sci(si.fill_ratio, 8),
                 format_sci(static_cast<double>(
                                hs != nullptr ? hs->promotions : 0),
                            8),
                 format_sci(static_cast<double>(
                                hs != nullptr ? hs->guard_retries : 0),
                            8)});
            return result;
        };
        tasks.push_back(r.add(std::move(spec)));
    }
    r.run();

    auto csv = open_csv("array_scaling", cfg);
    csv.write_row(std::vector<std::string>{
        "rows", "cols", "engine", "transistors", "unknowns", "init_s",
        "write_s", "read_s", "ok", "solver", "pattern_nnz", "lu_nnz",
        "fill_ratio", "hier_promotions", "hier_guard_retries"});
    TablePrinter table({"array", "engine", "transistors", "unknowns",
                        "solver", "nnz", "fill", "init", "write", "read",
                        "functional"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const runner::TaskId id = tasks[i];
        table.add_row({std::to_string(sizes[i].first) + "x" +
                           std::to_string(sizes[i].second),
                       value_or(r, id, "engine", "QUARANTINED"),
                       value_or(r, id, "transistors", "-"),
                       value_or(r, id, "unknowns", "-"),
                       value_or(r, id, "solver", "-"),
                       value_or(r, id, "pattern_nnz", "-"),
                       value_or(r, id, "fill_ratio", "-"),
                       value_or(r, id, "init", "-"),
                       value_or(r, id, "write", "-"),
                       value_or(r, id, "read", "-"),
                       value_or(r, id, "functional", "-")});
        for (const auto& row : r.result(id).rows)
            csv.write_row(row);
    }
    std::cout << table.render();

    expectation(
        "functional behaviour holds at every size. Flat points stay on the "
        "dense kernel until the ~64-unknown threshold routes them to sparse "
        "LU; mixed points report the *active partition* (accessed row + "
        "sentinels + per-column lumped loads), whose unknown count is set "
        "by the column count rather than the row count — which is what "
        "makes the 1024-cells-per-bitline column tractable.");
    return 0;
}

// --------------------------------------------------------------- registry

const std::vector<Figure>& ported_figures() {
    static const std::vector<Figure> figures = {
        {"fig6_write_assist",
         "Fig. 6(e): WLcrit vs beta for the write assists",
         run_fig6_write_assist},
        {"fig10_mc_read_assist",
         "Fig. 10: Monte-Carlo read-assist study at beta = 0.6",
         run_fig10_mc_read_assist},
        {"array_scaling", "array write/read wall time vs size",
         run_array_scaling},
        {"cell_zoo",
         "cell zoo: every registered design x (VDD, T, Tox) corner grid",
         run_cell_zoo},
        {"microbench", "solver hot-path counters and wall time",
         run_microbench},
    };
    return figures;
}

} // namespace tfetsram::bench
