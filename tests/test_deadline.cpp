// Deadline-aware cancellation and graceful degradation: the CancelToken
// primitive, deterministic retry backoff, the TFETSRAM_TASK_TIMEOUT env
// wiring, cooperative expiry inside DC / transient / Monte-Carlo solves
// (partial results preserved, counters deterministic), the stall fault
// site, the runner watchdog (stall detection -> cancel -> quarantine),
// token reset across runner retries, and the drain-and-cancel shutdown
// path. Companion to test_faults.cpp; semantics in docs/ROBUSTNESS.md.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mc/monte_carlo.hpp"
#include "mc/statistics.hpp"
#include "runner/runner.hpp"
#include "spice/cancel.hpp"
#include "spice/dc.hpp"
#include "spice/transient.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace tfetsram {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch dir per test case.
fs::path scratch(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("deadline_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

runner::RunnerConfig runner_config(const std::string& name) {
    const fs::path dir = scratch(name);
    runner::RunnerConfig cfg;
    cfg.run_name = name;
    cfg.threads = 1;
    cfg.cache_mode = runner::CacheMode::kOff;
    cfg.cache_dir = dir / "cache";
    cfg.out_dir = dir / "out";
    cfg.print_summary = false;
    return cfg;
}

runner::TaskSpec task(std::string id, runner::TaskFn fn) {
    runner::TaskSpec spec;
    spec.id = std::move(id);
    spec.fn = std::move(fn);
    return spec;
}

/// Linear resistive divider: converges under plain Newton unless faulted.
spice::Circuit divider() {
    spice::Circuit c;
    const spice::NodeId in = c.add_node("in");
    const spice::NodeId mid = c.add_node("mid");
    c.add_vsource("V1", in, spice::kGround, spice::Waveform::dc(1.0));
    c.add_resistor("R1", in, mid, 1e3);
    c.add_resistor("R2", mid, spice::kGround, 1e3);
    return c;
}

/// RC step response: enough accepted transient steps to interrupt midway.
spice::Circuit rc_lowpass() {
    spice::Circuit c;
    const spice::NodeId in = c.add_node("in");
    const spice::NodeId out = c.add_node("out");
    c.add_vsource("V1", in, spice::kGround, spice::Waveform::dc(1.0));
    c.add_resistor("R1", in, out, 1e3);
    c.add_capacitor("C1", out, spice::kGround, 1e-12);
    return c;
}

// --------------------------------------------------------- token primitive

TEST(CancelToken, CancelIsStickyUntilReset) {
    spice::CancelToken token;
    EXPECT_FALSE(token.cancelled());
    token.cancel();
    EXPECT_TRUE(token.cancelled());
    token.cancel(); // idempotent
    EXPECT_TRUE(token.cancelled());
    token.reset();
    EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, HeartbeatCountsTicks) {
    spice::CancelToken token;
    EXPECT_EQ(token.progress(), 0u);
    token.tick();
    token.tick();
    EXPECT_EQ(token.progress(), 2u);
    token.reset(); // reset clears the flag, not the heartbeat history
    token.tick();
    EXPECT_EQ(token.progress(), 3u);
}

TEST(SolveErrorCode, CancellationPredicateAndNames) {
    EXPECT_TRUE(spice::is_cancellation(spice::SolveErrorCode::kCancelled));
    EXPECT_TRUE(
        spice::is_cancellation(spice::SolveErrorCode::kDeadlineExceeded));
    EXPECT_FALSE(
        spice::is_cancellation(spice::SolveErrorCode::kNonConvergence));
    EXPECT_EQ(spice::to_string(spice::SolveErrorCode::kCancelled),
              "cancelled");
    EXPECT_EQ(spice::to_string(spice::SolveErrorCode::kDeadlineExceeded),
              "deadline-exceeded");
}

// ------------------------------------------------------- backoff schedule

TEST(RetryBackoff, FirstAttemptAndDisabledBaseAreFree) {
    EXPECT_DOUBLE_EQ(runner::retry_backoff_s(1, 42, 0.5, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(runner::retry_backoff_s(0, 42, 0.5, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(runner::retry_backoff_s(3, 42, 0.0, 10.0), 0.0);
}

TEST(RetryBackoff, DeterministicJitterWithinExponentialEnvelope) {
    for (int attempt = 2; attempt <= 6; ++attempt) {
        const double a = runner::retry_backoff_s(attempt, 7, 0.1, 100.0);
        const double b = runner::retry_backoff_s(attempt, 7, 0.1, 100.0);
        EXPECT_DOUBLE_EQ(a, b) << "attempt " << attempt;
        const double envelope = 0.1 * std::ldexp(1.0, attempt - 2);
        EXPECT_GE(a, 0.5 * envelope) << "attempt " << attempt;
        EXPECT_LT(a, envelope) << "attempt " << attempt;
    }
    // Different seeds desynchronize the schedule.
    EXPECT_NE(runner::retry_backoff_s(4, 7, 0.1, 100.0),
              runner::retry_backoff_s(4, 8, 0.1, 100.0));
}

TEST(RetryBackoff, CapBoundsTheDelay) {
    const double capped = runner::retry_backoff_s(20, 7, 1.0, 0.25);
    EXPECT_LE(capped, 0.25);
    EXPECT_GT(capped, 0.0);
}

// ----------------------------------------------------------- env plumbing

TEST(DeadlineEnv, ParseDoubleAcceptsNumbersRejectsJunk) {
    EXPECT_EQ(env::parse_double("2.5").value_or(-1.0), 2.5);
    EXPECT_EQ(env::parse_double("1e-3").value_or(-1.0), 1e-3);
    EXPECT_FALSE(env::parse_double("").has_value());
    EXPECT_FALSE(env::parse_double("fast").has_value());
    EXPECT_FALSE(env::parse_double("1.5s").has_value());
    EXPECT_FALSE(env::parse_double("inf").has_value());
}

TEST(DeadlineEnv, TaskTimeoutArmsSimConfigDeadline) {
    ::setenv("TFETSRAM_TASK_TIMEOUT", "2.5", 1);
    const env::EnvSnapshot snap = env::EnvSnapshot::capture();
    EXPECT_DOUBLE_EQ(snap.task_timeout, 2.5);
    const spice::SimConfig cfg = spice::SimConfig::from_env(snap);
    EXPECT_DOUBLE_EQ(cfg.deadline_s, 2.5);
    ::unsetenv("TFETSRAM_TASK_TIMEOUT");
    const spice::SimConfig fresh = spice::SimConfig::from_env();
    EXPECT_DOUBLE_EQ(fresh.deadline_s, 0.0);
}

// ------------------------------------------------- cooperative DC expiry

TEST(DcCancellation, PreCancelledTokenStopsBeforeAnyStrategy) {
    spice::SimConfig cfg;
    cfg.cancel = std::make_shared<spice::CancelToken>();
    cfg.cancel->cancel();
    spice::SimContext ctx(cfg);
    spice::Circuit c = divider();
    const spice::DcResult r = spice::solve_dc(c, ctx, {});
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.strategy, "cancelled");
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, spice::SolveErrorCode::kCancelled);
    EXPECT_EQ(ctx.stats().cancelled_solves, 1u);
    // No Newton work was spent on a doomed solve.
    EXPECT_EQ(ctx.stats().nr_iterations, 0u);
}

TEST(DcCancellation, IterationBudgetExpiresDeterministically) {
    auto run_pair = [] {
        spice::SimConfig cfg;
        cfg.iteration_budget = 1;
        spice::SimContext ctx(cfg);
        spice::Circuit c = divider();
        const spice::DcResult first = spice::solve_dc(c, ctx, {});
        EXPECT_TRUE(first.converged); // budget not yet consumed
        const spice::DcResult second = spice::solve_dc(c, ctx, {});
        EXPECT_FALSE(second.converged);
        EXPECT_TRUE(second.error.has_value());
        if (second.error) {
            EXPECT_EQ(second.error->code,
                      spice::SolveErrorCode::kDeadlineExceeded);
        }
        return std::make_pair(ctx.stats().deadline_polls,
                              ctx.stats().cancelled_solves);
    };
    const auto a = run_pair();
    const auto b = run_pair();
    // Same work, same polls, same censored-solve count — rerun-stable.
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_EQ(a.second, 1u);
    EXPECT_GT(a.first, 0u);
}

// --------------------------------------------- mid-transient degradation

TEST(TransientCancellation, DeadlinePreservesPartialWaveform) {
    // Measure an uninterrupted run, then rerun with a budget that expires
    // near (but before) the end: the result must carry the waveform up to
    // the expiry point plus a structured deadline error.
    spice::SimConfig full_cfg;
    spice::SimContext full_ctx(full_cfg);
    spice::Circuit c0 = rc_lowpass();
    const double t_end = 10e-9; // 10 RC time constants
    const spice::TransientResult full =
        spice::solve_transient(c0, full_ctx, {}, t_end);
    ASSERT_TRUE(full.completed);
    ASSERT_GT(full.size(), 4u);
    const std::uint64_t full_iters = full_ctx.stats().nr_iterations;
    ASSERT_GT(full_iters, 4u);

    auto run_budgeted = [&](std::uint64_t budget) {
        spice::SimConfig cfg;
        cfg.iteration_budget = budget;
        spice::SimContext ctx(cfg);
        spice::Circuit c = rc_lowpass();
        const spice::TransientResult r =
            spice::solve_transient(c, ctx, {}, t_end);
        EXPECT_FALSE(r.completed);
        EXPECT_TRUE(r.error.has_value());
        if (r.error) {
            EXPECT_EQ(r.error->code,
                      spice::SolveErrorCode::kDeadlineExceeded);
        }
        EXPECT_NE(r.message.find("partial waveform preserved"),
                  std::string::npos);
        // Partial trajectory: started, made progress, stopped early.
        EXPECT_TRUE(r.has_state());
        EXPECT_GT(r.size(), 1u);
        EXPECT_GT(r.time_reached, 0.0);
        EXPECT_LT(r.time_reached, t_end);
        EXPECT_GE(ctx.stats().cancelled_solves, 1u);
        return std::make_pair(r.time_reached, ctx.stats().deadline_polls);
    };
    const auto a = run_budgeted(full_iters - 1);
    const auto b = run_budgeted(full_iters - 1);
    EXPECT_DOUBLE_EQ(a.first, b.first); // expiry lands on the same step
    EXPECT_EQ(a.second, b.second);      // and the poll count is identical
}

TEST(TransientCancellation, ResumedAttemptExpiresWithPrefixIntact) {
    // A WLcrit bisection whose iteration budget runs out after its first
    // (recording) attempt: the next attempt resumes the tape and expires
    // in the part it integrates itself.
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const sram::MetricOptions opts;
    std::uint64_t recording_iters = 0;
    {
        spice::SimContext ctx{spice::SimConfig{}};
        sram::SramCell cell = sram::build_cell(cfg, &ctx);
        sram::WriteBisection shared;
        ASSERT_TRUE(sram::attempt_write(cell, opts.wlcrit_max,
                                        sram::Assist::kNone, opts, &shared)
                        .flipped);
        recording_iters = ctx.stats().nr_iterations;
    }
    const std::uint64_t budget = recording_iters + 20;

    auto run_budgeted = [&] {
        spice::SimConfig sc;
        sc.iteration_budget = budget;
        spice::SimContext ctx(sc);
        sram::SramCell cell = sram::build_cell(cfg, &ctx);
        sram::WriteBisection shared;
        // The budget is not yet spent by the recording attempt.
        EXPECT_TRUE(sram::attempt_write(cell, opts.wlcrit_max,
                                        sram::Assist::kNone, opts, &shared)
                        .flipped);
        const spice::SolverStats before = ctx.stats();
        const sram::OperationWindow w = sram::program_write(
            cell, sram::preferred_write_value(cell), opts.wlcrit_min,
            sram::Assist::kNone, opts.assist_fraction, opts.timing);
        const spice::TransientResult r = spice::solve_transient(
            cell.circuit, ctx, {}, w.t_end, nullptr, &shared.hold->x,
            &shared.tape);
        const std::uint64_t replayed =
            (ctx.stats() - before).transient_steps_replayed;
        EXPECT_FALSE(r.completed);
        EXPECT_TRUE(r.error.has_value());
        if (r.error) {
            EXPECT_EQ(r.error->code,
                      spice::SolveErrorCode::kDeadlineExceeded);
        }
        EXPECT_NE(r.message.find("partial waveform preserved"),
                  std::string::npos);
        // The recorded prefix is intact, and the run went past it.
        const spice::TransientResult& rec = shared.tape.trajectory();
        EXPECT_GT(replayed, 0u);
        EXPECT_GT(r.size(), replayed + 1);
        for (std::size_t i = 0; i <= replayed && i < r.size(); ++i) {
            EXPECT_EQ(r.times()[i], rec.times()[i]) << "sample " << i;
            EXPECT_EQ(r.state(i), rec.state(i)) << "sample " << i;
        }
        return std::make_pair(r.time_reached, ctx.stats().deadline_polls);
    };
    const auto a = run_budgeted();
    const auto b = run_budgeted();
    EXPECT_EQ(a.first, b.first);   // expiry lands on the same step
    EXPECT_EQ(a.second, b.second); // and the poll count is identical

    // The whole bisection under the same budget reports no measurement.
    spice::SimConfig sc;
    sc.iteration_budget = budget;
    spice::SimContext ctx(sc);
    sram::SramCell cell = sram::build_cell(cfg, &ctx);
    EXPECT_TRUE(std::isnan(
        sram::critical_wordline_pulse(cell, sram::Assist::kNone, opts)));
}

// ------------------------------------------------ Monte-Carlo censoring

TEST(McCancellation, DeadlineCensoredSamplesFlowIntoYieldInterval) {
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    mc::VariationSpec vspec;
    vspec.table_spec.points = 121; // coarse tables keep the test quick
    const mc::TfetVariationSampler sampler(vspec);

    spice::SimConfig sim;
    sim.cancel = std::make_shared<spice::CancelToken>();
    sim.cancel->cancel(); // expire before the first sample is evaluated
    spice::SimContext ctx(sim);
    std::atomic<int> metric_calls{0};
    const mc::McResult res = mc::run_monte_carlo(
        ctx, cfg, sampler, 4, 7,
        [&](sram::SramCell& cell) -> double {
            ++metric_calls;
            return cell.config.vdd;
        },
        /*threads=*/1);
    // Cancellation censors every sample cooperatively — the metric never
    // runs, the slots are NaN-marked, and nothing lands in the moments.
    EXPECT_EQ(metric_calls.load(), 0);
    EXPECT_EQ(res.n_censored, 4u);
    ASSERT_EQ(res.samples.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE(std::isnan(res.samples[i])) << "i=" << i;
        EXPECT_EQ(res.censored[i], 1) << "i=" << i;
    }
    EXPECT_EQ(res.summary.count, 0u);

    // Deadline-censored samples widen the yield interval exactly like
    // convergence-censored ones: worst-case imputation over the full
    // trial count.
    const mc::YieldInterval plain = mc::yield_interval(4, 4);
    const mc::YieldInterval cens =
        mc::censored_yield_interval(4, 4, res.n_censored);
    EXPECT_LT(cens.lower, plain.lower);
    EXPECT_GE(cens.upper, plain.upper);
    EXPECT_DOUBLE_EQ(cens.lower, mc::yield_interval(4, 8).lower);
    EXPECT_DOUBLE_EQ(cens.upper, mc::yield_interval(8, 8).upper);
}

TEST(McCancellation, MidBatchExpiryCensorsOnlyRemainingSamples) {
    // The token fires from *inside* the batch — after sample 2's metric
    // has already produced its value. The completed samples must survive;
    // only the not-yet-evaluated tail is censored.
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    mc::VariationSpec vspec;
    vspec.table_spec.points = 121;
    const mc::TfetVariationSampler sampler(vspec);
    constexpr std::size_t kN = 6;
    constexpr std::uint64_t kSeed = 23;

    spice::SimConfig sim;
    sim.cancel = std::make_shared<spice::CancelToken>();
    spice::SimContext ctx(sim);
    int metric_calls = 0;
    const mc::CellMetric metric = [&](sram::SramCell& cell) {
        // Solve first, cancel after: the value is complete before the
        // token fires, so this sample must NOT be censored.
        const double v =
            sram::worst_hold_static_power(cell, sram::MetricOptions{});
        if (++metric_calls == 3)
            sim.cancel->cancel();
        return v;
    };
    const mc::McResult res = mc::run_monte_carlo(ctx, cfg, sampler, kN, kSeed,
                                                 metric, /*threads=*/1);
    EXPECT_EQ(metric_calls, 3);
    ASSERT_EQ(res.samples.size(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(res.censored[i], i < 3 ? 0 : 1) << "i=" << i;
        EXPECT_EQ(std::isnan(res.samples[i]), i >= 3) << "i=" << i;
    }
    EXPECT_EQ(res.n_censored, kN - 3);
    EXPECT_EQ(res.summary.count, 3u);

    // The conservative interval stays honest about the censored tail: the
    // 3 evaluated passes prove no more than 3-of-6 worst-case, no less
    // than 6-of-6 best-case.
    const mc::YieldInterval cens =
        mc::censored_yield_interval(3, 3, res.n_censored);
    EXPECT_DOUBLE_EQ(cens.lower, mc::yield_interval(3, 6).lower);
    EXPECT_DOUBLE_EQ(cens.upper, mc::yield_interval(6, 6).upper);
    EXPECT_LT(cens.lower, mc::yield_interval(3, 3).lower);
}

TEST(McCancellation, PreFiredTokenCensorsWithoutExtractingDraws) {
    // Table extraction sits behind the sample's cancellation checkpoint:
    // under a token that fired before the call, every sample censors,
    // still reports the tox it drew, and no model set is built.
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    mc::VariationSpec vspec;
    vspec.table_spec.points = 121;
    const mc::TfetVariationSampler sampler(vspec);
    constexpr std::size_t kN = 6;
    constexpr std::uint64_t kSeed = 29;
    Rng rng(kSeed);
    std::vector<double> expect_tox;
    for (std::size_t i = 0; i < kN; ++i)
        expect_tox.push_back(sampler.sample_tox(rng));

    spice::SimConfig sim;
    sim.cancel = std::make_shared<spice::CancelToken>();
    sim.cancel->cancel();
    const spice::SimContext ctx(sim);
    int metric_calls = 0;
    const mc::CellMetric metric = [&](sram::SramCell&) {
        ++metric_calls;
        return 0.0;
    };
    mc::BatchStats stats;
    const mc::McResult res =
        mc::run_monte_carlo(ctx, cfg, sampler, kN, kSeed, metric,
                            /*threads=*/2, mc::McPolicy{}, &stats);
    EXPECT_EQ(metric_calls, 0);
    EXPECT_EQ(res.n_censored, kN);
    EXPECT_EQ(res.n_retried, 0u);
    EXPECT_EQ(res.summary.count, 0u);
    ASSERT_EQ(res.tox_values.size(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(res.censored[i], 1) << "i=" << i;
        EXPECT_EQ(res.tox_values[i], expect_tox[i]) << "i=" << i;
    }
    EXPECT_EQ(stats.draws, 0u);
    EXPECT_EQ(stats.cell_builds, 0u);
}

// ------------------------------------------------------- stall fault site

TEST(StallFault, SiteParsesAndRoundTrips) {
    const auto plan = fault::FaultPlan::parse("stall@0");
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(plan.fires(fault::Site::kStall, 0));
    EXPECT_FALSE(plan.fires(fault::Site::kStall, 1));
    EXPECT_STREQ(fault::to_string(fault::Site::kStall), "stall");
}

TEST(StallFault, ParkedSolveUnwindsWhenTokenFires) {
    spice::SimConfig cfg;
    cfg.cancel = std::make_shared<spice::CancelToken>();
    cfg.fault_spec = "stall@0";
    spice::SimContext ctx(cfg);
    std::thread canceller([token = cfg.cancel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        token->cancel();
    });
    spice::Circuit c = divider();
    const spice::DcResult r = spice::solve_dc(c, ctx, {});
    canceller.join();
    EXPECT_FALSE(r.converged);
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, spice::SolveErrorCode::kCancelled);
    // Cancellation is sticky until reset; with the token re-armed and the
    // stall op index already consumed, the next solve runs clean.
    cfg.cancel->reset();
    const spice::DcResult again = spice::solve_dc(c, ctx, {});
    EXPECT_TRUE(again.converged);
}

// ------------------------------------------------------- runner watchdog

runner::TaskFn solve_divider_or_throw() {
    return []() -> runner::TaskResult {
        spice::Circuit c = divider();
        const spice::DcResult r =
            spice::solve_dc(c, spice::ambient_context(), {});
        if (!r.converged)
            throw spice::SolveException(*r.error);
        runner::TaskResult res;
        res.set("v", "ok");
        return res;
    };
}

TEST(Watchdog, StalledTaskIsCancelledAndQuarantined) {
    runner::RunnerConfig cfg = runner_config("watchdog_stall");
    cfg.keep_going = true;
    cfg.stall_timeout_s = 0.05;
    runner::Runner r(cfg);
    runner::TaskSpec spec = task("stalls", solve_divider_or_throw());
    spec.sim = spice::SimConfig{};
    spec.sim->fault_spec = "stall@0"; // parks in the stall site forever
    const runner::TaskId stalled = r.add(std::move(spec));
    const runner::TaskId healthy =
        r.add(task("healthy", solve_divider_or_throw()));

    const runner::RunSummary summary = r.run(); // must not throw
    EXPECT_EQ(r.status(stalled), runner::TaskStatus::kQuarantined);
    ASSERT_NE(r.error(stalled), nullptr);
    EXPECT_NE(r.error(stalled)->cause().find("cancelled"),
              std::string::npos);
    EXPECT_EQ(r.status(healthy), runner::TaskStatus::kExecuted);
    EXPECT_EQ(summary.quarantined, 1u);
    EXPECT_EQ(summary.executed, 1u);
    EXPECT_TRUE(summary.degraded());

    // The journal attributes the intervention; BENCH records degradation.
    const std::string journal =
        slurp(cfg.out_dir / (cfg.run_name + "_journal.jsonl"));
    EXPECT_NE(journal.find("\"watchdog\":\"stall\""), std::string::npos);
    const std::string bench =
        slurp(cfg.out_dir / ("BENCH_" + cfg.run_name + ".json"));
    EXPECT_NE(bench.find("\"degraded\":true"), std::string::npos);
}

TEST(Watchdog, TaskTimeoutBoundsAnOverrunningAttempt) {
    runner::RunnerConfig cfg = runner_config("watchdog_timeout");
    cfg.keep_going = true;
    cfg.task_timeout_s = 0.05; // cooperative deadline + watchdog backstop
    runner::Runner r(cfg);
    runner::TaskSpec spec = task("overruns", solve_divider_or_throw());
    spec.sim = spice::SimConfig{};
    spec.sim->fault_spec = "stall@0";
    const runner::TaskId id = r.add(std::move(spec));
    const runner::RunSummary summary = r.run();
    EXPECT_EQ(r.status(id), runner::TaskStatus::kQuarantined);
    EXPECT_TRUE(summary.degraded());
    ASSERT_NE(r.error(id), nullptr);
}

TEST(Watchdog, TokenResetLetsTheRetrySucceed) {
    runner::RunnerConfig cfg = runner_config("watchdog_retry");
    cfg.stall_timeout_s = 0.05;
    runner::Runner r(cfg);
    runner::TaskSpec spec = task("stall_once", solve_divider_or_throw());
    spec.sim = spice::SimConfig{};
    spec.sim->fault_spec = "stall@0"; // only the first attempt's solve parks
    spec.max_attempts = 2;
    const runner::TaskId id = r.add(std::move(spec));
    const runner::RunSummary summary = r.run(); // retry must not throw
    EXPECT_EQ(r.status(id), runner::TaskStatus::kExecuted);
    EXPECT_EQ(r.result(id).get("v"), "ok");
    EXPECT_EQ(summary.executed, 1u);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_FALSE(summary.degraded());
    const std::string journal =
        slurp(cfg.out_dir / (cfg.run_name + "_journal.jsonl"));
    EXPECT_NE(journal.find("\"attempts\":2"), std::string::npos);
}

TEST(Watchdog, BackoffDelaysTheRetry) {
    runner::RunnerConfig cfg = runner_config("backoff");
    cfg.backoff_base_s = 0.02;
    cfg.backoff_max_s = 0.05;
    runner::Runner r(cfg);
    std::atomic<int> calls{0};
    runner::TaskSpec spec = task("flaky", [&]() -> runner::TaskResult {
        if (++calls < 2)
            throw std::runtime_error("transient blip");
        return {};
    });
    spec.max_attempts = 2;
    const runner::TaskId id = r.add(std::move(spec));
    const auto t0 = std::chrono::steady_clock::now();
    r.run();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(r.status(id), runner::TaskStatus::kExecuted);
    EXPECT_EQ(calls.load(), 2);
    // Jitter keeps the delay in [base/2, base) for the first retry.
    EXPECT_GE(elapsed, 0.009);
}

// ------------------------------------------------- drain-and-cancel path

TEST(DrainAndCancel, RequestCancelJournalsQueuedTasksAsCancelled) {
    runner::RunnerConfig cfg = runner_config("drain");
    runner::Runner r(cfg);
    std::atomic<int> ran{0};
    runner::TaskSpec trigger = task("trigger", [&]() -> runner::TaskResult {
        ++ran;
        r.request_cancel();
        return {};
    });
    const runner::TaskId first = r.add(std::move(trigger));
    std::vector<runner::TaskId> rest;
    for (int i = 0; i < 3; ++i)
        rest.push_back(r.add(task("queued_" + std::to_string(i),
                                  [&]() -> runner::TaskResult {
                                      ++ran;
                                      return {};
                                  })));

    const runner::RunSummary summary = r.run(); // drains, does not throw
    EXPECT_EQ(ran.load(), 1); // only the trigger ever executed
    EXPECT_EQ(r.status(first), runner::TaskStatus::kExecuted);
    for (const runner::TaskId id : rest)
        EXPECT_EQ(r.status(id), runner::TaskStatus::kCancelled);
    EXPECT_EQ(summary.cancelled, 3u);
    EXPECT_EQ(summary.executed, 1u);
    EXPECT_TRUE(summary.degraded());
    const std::string bench =
        slurp(cfg.out_dir / ("BENCH_" + cfg.run_name + ".json"));
    EXPECT_NE(bench.find("\"cancelled\":3"), std::string::npos);
    EXPECT_NE(bench.find("\"degraded\":true"), std::string::npos);
}

} // namespace
} // namespace tfetsram
