// Fault-injection tests: the TFETSRAM_FAULTS spec grammar, the DC homotopy
// fallback chain under forced Newton failures, transient dt-underflow
// context, AC error propagation, Monte-Carlo retry/censoring, runner
// retry/quarantine, cache corruption tolerance, crash-safe artifact
// writes, and the thread-pool noexcept guard. Every failure-handling path
// in docs/ROBUSTNESS.md is executed here on purpose — recovery code that
// is never run is recovery code that does not work.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mc/monte_carlo.hpp"
#include "mc/statistics.hpp"
#include "runner/json.hpp"
#include "runner/runner.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "util/contracts.hpp"
#include "util/fault.hpp"

namespace tfetsram {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch dir per test case.
fs::path scratch(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("faults_" + name);
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

// ------------------------------------------------------------ spec grammar

TEST(FaultPlan, IndexListFiresExactlyThere) {
    const auto plan = fault::FaultPlan::parse("newton@0,3");
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(plan.fires(fault::Site::kNewton, 0));
    EXPECT_FALSE(plan.fires(fault::Site::kNewton, 1));
    EXPECT_FALSE(plan.fires(fault::Site::kNewton, 2));
    EXPECT_TRUE(plan.fires(fault::Site::kNewton, 3));
    EXPECT_FALSE(plan.fires(fault::Site::kNewton, 4));
    // Other sites are untouched.
    EXPECT_FALSE(plan.fires(fault::Site::kDcSolve, 0));
}

TEST(FaultPlan, EverySelector) {
    const auto plan = fault::FaultPlan::parse("dc@every:3");
    EXPECT_TRUE(plan.fires(fault::Site::kDcSolve, 0));
    EXPECT_FALSE(plan.fires(fault::Site::kDcSolve, 1));
    EXPECT_FALSE(plan.fires(fault::Site::kDcSolve, 2));
    EXPECT_TRUE(plan.fires(fault::Site::kDcSolve, 3));
    EXPECT_TRUE(plan.fires(fault::Site::kDcSolve, 6));
}

TEST(FaultPlan, FromSelector) {
    const auto plan = fault::FaultPlan::parse("cache_load@from:2");
    EXPECT_FALSE(plan.fires(fault::Site::kCacheLoad, 0));
    EXPECT_FALSE(plan.fires(fault::Site::kCacheLoad, 1));
    EXPECT_TRUE(plan.fires(fault::Site::kCacheLoad, 2));
    EXPECT_TRUE(plan.fires(fault::Site::kCacheLoad, 1000));
}

TEST(FaultPlan, ProbabilitySelectorIsSeededAndDeterministic) {
    const auto a = fault::FaultPlan::parse("newton@p:0.5:7");
    const auto b = fault::FaultPlan::parse("newton@p:0.5:7");
    std::size_t fired = 0;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        EXPECT_EQ(a.fires(fault::Site::kNewton, i),
                  b.fires(fault::Site::kNewton, i));
        fired += a.fires(fault::Site::kNewton, i) ? 1 : 0;
    }
    // An unbiased p=0.5 Bernoulli over 2000 draws lands well inside this.
    EXPECT_GT(fired, 800u);
    EXPECT_LT(fired, 1200u);
}

TEST(FaultPlan, MultipleClausesAreIndependent) {
    const auto plan = fault::FaultPlan::parse("newton@1;dc@0");
    EXPECT_FALSE(plan.fires(fault::Site::kNewton, 0));
    EXPECT_TRUE(plan.fires(fault::Site::kNewton, 1));
    EXPECT_TRUE(plan.fires(fault::Site::kDcSolve, 0));
    EXPECT_FALSE(plan.fires(fault::Site::kDcSolve, 1));
    EXPECT_FALSE(plan.fires(fault::Site::kCacheStore, 0));
}

TEST(FaultPlan, EmptySpecNeverFires) {
    const fault::FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    EXPECT_FALSE(plan.fires(fault::Site::kNewton, 0));
}

TEST(FaultPlan, MalformedSpecsThrowContractViolation) {
    EXPECT_THROW(fault::FaultPlan::parse("bogus@0"), contract_violation);
    EXPECT_THROW(fault::FaultPlan::parse("newton"), contract_violation);
    EXPECT_THROW(fault::FaultPlan::parse("newton@"), contract_violation);
    EXPECT_THROW(fault::FaultPlan::parse("newton@every:0"),
                 contract_violation);
    EXPECT_THROW(fault::FaultPlan::parse("newton@every:abc"),
                 contract_violation);
    EXPECT_THROW(fault::FaultPlan::parse("newton@p:2.0:1"),
                 contract_violation);
    EXPECT_THROW(fault::FaultPlan::parse("newton@p:0.5"),
                 contract_violation);
    EXPECT_THROW(fault::FaultPlan::parse("newton@1x"), contract_violation);
}

TEST(FaultInjector, ScopedArmCountsOpsAndRestores) {
    {
        fault::ScopedFaultInjection inject("newton@1");
        EXPECT_EQ(fault::op_count(fault::Site::kNewton), 0u);
        EXPECT_FALSE(fault::should_fail(fault::Site::kNewton)); // index 0
        EXPECT_TRUE(fault::should_fail(fault::Site::kNewton));  // index 1
        EXPECT_FALSE(fault::should_fail(fault::Site::kNewton)); // index 2
        EXPECT_EQ(fault::op_count(fault::Site::kNewton), 3u);
        EXPECT_EQ(fault::op_count(fault::Site::kDcSolve), 0u);
    }
    // Plan restored (disarmed): hooks never fire and never count.
    EXPECT_FALSE(fault::should_fail(fault::Site::kNewton));
}

TEST(FaultInjector, ReloadFromEnvArmsAndDisarms) {
    ::setenv("TFETSRAM_FAULTS", "cache_store@0", 1);
    fault::reload_from_env();
    EXPECT_TRUE(fault::should_fail(fault::Site::kCacheStore));  // index 0
    EXPECT_FALSE(fault::should_fail(fault::Site::kCacheStore)); // index 1
    ::unsetenv("TFETSRAM_FAULTS");
    fault::reload_from_env();
    EXPECT_FALSE(fault::should_fail(fault::Site::kCacheStore));
}

// ------------------------------------------------- DC fallback chain

TEST(DcFallback, CleanSolveUsesPlainNewton) {
    spice::Circuit c = divider();
    const spice::DcResult r = spice::solve_dc(c, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.strategy, "newton");
    ASSERT_EQ(r.attempts.size(), 1u);
    EXPECT_EQ(r.attempts[0].name, "newton");
    EXPECT_TRUE(r.attempts[0].converged);
    EXPECT_LT(r.attempts[0].residual, 1e-6);
    EXPECT_FALSE(r.error.has_value());
}

TEST(DcFallback, NewtonFailureFallsBackToGminStepping) {
    spice::Circuit c = divider();
    fault::ScopedFaultInjection inject("newton@0");
    const spice::DcResult r = spice::solve_dc(c, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.strategy, "gmin-stepping");
    ASSERT_EQ(r.attempts.size(), 2u);
    EXPECT_EQ(r.attempts[0].name, "newton");
    EXPECT_FALSE(r.attempts[0].converged);
    EXPECT_EQ(r.attempts[1].name, "gmin-stepping");
    EXPECT_TRUE(r.attempts[1].converged);
    EXPECT_FALSE(r.error.has_value());
    // The solution is still the right one: mid node divides 1 V in half.
    EXPECT_NEAR(spice::node_voltage(r.x, 2), 0.5, 1e-6);
}

TEST(DcFallback, GminFailureFallsBackToSourceStepping) {
    spice::Circuit c = divider();
    // Kill plain Newton (call 0) and the first gmin stage (call 1).
    fault::ScopedFaultInjection inject("newton@0,1");
    const spice::DcResult r = spice::solve_dc(c, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.strategy, "source-stepping");
    ASSERT_EQ(r.attempts.size(), 3u);
    EXPECT_FALSE(r.attempts[0].converged);
    EXPECT_FALSE(r.attempts[1].converged);
    EXPECT_EQ(r.attempts[2].name, "source-stepping");
    EXPECT_TRUE(r.attempts[2].converged);
    EXPECT_NEAR(spice::node_voltage(r.x, 2), 0.5, 1e-6);
}

TEST(DcFallback, ExhaustionReportsStructuredError) {
    spice::Circuit c = divider();
    fault::ScopedFaultInjection inject("newton@every:1");
    const spice::DcResult r = spice::solve_dc(c, spice::ambient_context(), {});
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.strategy, "failed");
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, spice::SolveErrorCode::kNonConvergence);
    ASSERT_EQ(r.error->strategies.size(), 3u);
    EXPECT_EQ(r.error->strategies[0].name, "newton");
    EXPECT_EQ(r.error->strategies[1].name, "gmin-stepping");
    EXPECT_EQ(r.error->strategies[2].name, "source-stepping");
    for (const auto& s : r.error->strategies)
        EXPECT_FALSE(s.converged);
    EXPECT_EQ(r.error->last_iterate.size(), r.x.size());
    // describe() renders code, message, and the chain in one line.
    const std::string text = r.error->describe();
    EXPECT_NE(text.find("non-convergence"), std::string::npos);
    EXPECT_NE(text.find("gmin-stepping"), std::string::npos);
}

TEST(DcFallback, InjectedDcFaultShortCircuitsTheChain) {
    spice::Circuit c = divider();
    fault::ScopedFaultInjection inject("dc@0");
    const spice::DcResult r = spice::solve_dc(c, spice::ambient_context(), {});
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.strategy, "failed");
    EXPECT_TRUE(r.attempts.empty()); // no strategy ever ran
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, spice::SolveErrorCode::kInjectedFault);
}

// ------------------------------------------------- transient failure state

TEST(TransientFaults, MidRunFailureKeepsTimeReachedAndLastState) {
    spice::Circuit c;
    const spice::NodeId in = c.add_node("in");
    const spice::NodeId out = c.add_node("out");
    c.add_vsource("V1", in, spice::kGround, spice::Waveform::dc(1.0));
    c.add_resistor("R1", in, out, 1e3);
    c.add_capacitor("C1", out, spice::kGround, 1e-9);
    // Newton call 0 is the t=0 operating point; calls 1..3 are accepted
    // steps; from call 4 on every solve fails, so dt collapses below
    // dt_min mid-run.
    fault::ScopedFaultInjection inject("newton@from:4");
    const spice::TransientResult r =
        spice::solve_transient(c, spice::ambient_context(), {}, 1e-9);
    EXPECT_FALSE(r.completed);
    EXPECT_GT(r.time_reached, 0.0);
    EXPECT_LT(r.time_reached, 1e-9);
    ASSERT_TRUE(r.has_state());
    EXPECT_EQ(r.last_state().size(), c.num_unknowns());
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, spice::SolveErrorCode::kDtUnderflow);
    EXPECT_DOUBLE_EQ(r.error->time, r.time_reached);
    EXPECT_NE(r.message.find("dt below dt_min"), std::string::npos);
    EXPECT_NE(r.message.find("% of t_end"), std::string::npos);
}

TEST(TransientFaults, OperatingPointFailurePropagatesDcError) {
    spice::Circuit c = divider();
    fault::ScopedFaultInjection inject("dc@0");
    const spice::TransientResult r =
        spice::solve_transient(c, spice::ambient_context(), {}, 1e-9);
    EXPECT_FALSE(r.completed);
    EXPECT_DOUBLE_EQ(r.time_reached, 0.0);
    EXPECT_FALSE(r.has_state());
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, spice::SolveErrorCode::kInjectedFault);
}

// ------------------------------------------------- WLcrit bisection

TEST(WlcritFaults, UnsimulatedShortestAttemptReturnsNaN) {
    // The bisection's second attempt (the wlcrit_min pulse) is the first
    // to resume the longest attempt's transient tape. When it cannot be
    // simulated, WLcrit is NaN, as for every other attempt: the bisection
    // must not read a failed simulation as a failed write and go on.
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const sram::MetricOptions opts;
    // Newton calls of the hold state and the first attempt, counted under
    // a plan that never fires.
    std::uint64_t first_calls = 0;
    {
        fault::ScopedFaultInjection count_only("newton@from:1000000000");
        sram::SramCell cell = sram::build_cell(cfg);
        sram::WriteBisection shared;
        ASSERT_TRUE(sram::attempt_write(cell, opts.wlcrit_max,
                                        sram::Assist::kNone, opts, &shared)
                        .flipped);
        first_calls = fault::op_count(fault::Site::kNewton);
    }
    ASSERT_GT(first_calls, 0u);

    // Fail every Newton call from there on: the shortest attempt gives up
    // once its first step's retries are exhausted (dt below dt_min).
    std::uint64_t faulted_calls = 0;
    {
        fault::ScopedFaultInjection inject("newton@from:" +
                                           std::to_string(first_calls));
        sram::SramCell cell = sram::build_cell(cfg);
        sram::WriteBisection shared;
        ASSERT_TRUE(sram::attempt_write(cell, opts.wlcrit_max,
                                        sram::Assist::kNone, opts, &shared)
                        .flipped);
        EXPECT_FALSE(sram::attempt_write(cell, opts.wlcrit_min,
                                         sram::Assist::kNone, opts, &shared)
                         .simulated);
        faulted_calls = fault::op_count(fault::Site::kNewton) - first_calls;
    }
    ASSERT_GT(faulted_calls, 0u);

    // Fault exactly those calls: every later attempt would simulate.
    std::string spec = "newton@";
    for (std::uint64_t i = 0; i < faulted_calls; ++i)
        spec += (i == 0 ? "" : ",") + std::to_string(first_calls + i);
    fault::ScopedFaultInjection inject(spec);
    sram::SramCell cell = sram::build_cell(cfg);
    EXPECT_TRUE(std::isnan(
        sram::critical_wordline_pulse(cell, sram::Assist::kNone, opts)));
    // The bisection ended with the faulted attempt.
    EXPECT_EQ(fault::op_count(fault::Site::kNewton),
              first_calls + faulted_calls);
}

// ------------------------------------------------- AC error propagation

TEST(AcFaults, FailedOperatingPointCarriesStructuredError) {
    spice::Circuit c;
    const spice::NodeId in = c.add_node("in");
    const spice::NodeId out = c.add_node("out");
    auto& vin = c.add_vsource("V", in, spice::kGround,
                              spice::Waveform::dc(0.0));
    c.add_resistor("R", in, out, 1e3);
    c.add_capacitor("C", out, spice::kGround, 1e-12);
    fault::ScopedFaultInjection inject("dc@0");
    const spice::AcResult r =
        spice::solve_ac(
            c, spice::ambient_context(), {}, {&vin, 1.0}, 1e6, 1e8, 3);
    EXPECT_FALSE(r.ok);
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, spice::SolveErrorCode::kInjectedFault);
    EXPECT_NE(r.message.find("operating point"), std::string::npos);
}

// ------------------------------------------------- Monte-Carlo censoring

spice::SolveException forced_failure() {
    spice::SolveError err;
    err.code = spice::SolveErrorCode::kNonConvergence;
    err.message = "forced by test";
    return spice::SolveException(std::move(err));
}

mc::VariationSpec coarse_spec() {
    mc::VariationSpec s;
    s.table_spec.points = 121; // coarse tables keep these tests quick
    return s;
}

TEST(McCensoring, AllAttemptsFailingCensorsTheSample) {
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const mc::TfetVariationSampler sampler(coarse_spec());
    std::atomic<int> calls{0};
    std::vector<std::pair<int, std::size_t>> reseeds;
    mc::McPolicy policy;
    policy.max_attempts = 2;
    policy.reseed = [&](sram::CellConfig&, int attempt, std::size_t i) {
        reseeds.emplace_back(attempt, i);
    };
    const mc::McResult res = mc::run_monte_carlo(
        spice::ambient_context(), cfg, sampler, 4, 7,
        [&](sram::SramCell&) -> double {
            ++calls;
            throw forced_failure();
        },
        /*threads=*/1, policy);
    EXPECT_EQ(calls.load(), 8); // 4 samples x 2 attempts
    EXPECT_EQ(res.n_censored, 4u);
    EXPECT_EQ(res.n_retried, 4u);
    ASSERT_EQ(res.samples.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_TRUE(std::isnan(res.samples[i])) << "i=" << i;
        EXPECT_EQ(res.censored[i], 1) << "i=" << i;
    }
    EXPECT_EQ(res.summary.count, 0u); // censored slots stay out of moments
    // The reseed hook ran once per sample, on the retry attempt.
    ASSERT_EQ(reseeds.size(), 4u);
    for (const auto& [attempt, index] : reseeds)
        EXPECT_EQ(attempt, 2) << "sample " << index;
}

TEST(McCensoring, RetryRecoversWithoutCensoring) {
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const mc::TfetVariationSampler sampler(coarse_spec());
    // Serial execution evaluates each sample's attempts back to back, so
    // alternating throw/succeed fails exactly the first attempt of every
    // sample.
    int call = 0;
    mc::McPolicy policy;
    policy.max_attempts = 3;
    const mc::McResult res = mc::run_monte_carlo(
        spice::ambient_context(), cfg, sampler, 4, 7,
        [&](sram::SramCell&) -> double {
            if (call++ % 2 == 0)
                throw forced_failure();
            return 1.0;
        },
        /*threads=*/1, policy);
    EXPECT_EQ(res.n_censored, 0u);
    EXPECT_EQ(res.n_retried, 4u);
    EXPECT_EQ(res.summary.count, 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(res.samples[i], 1.0);
        EXPECT_EQ(res.censored[i], 0);
    }
}

TEST(McCensoring, NoFaultMeansNoRetries) {
    const sram::CellConfig cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const mc::TfetVariationSampler sampler(coarse_spec());
    const mc::McResult res = mc::run_monte_carlo(
        spice::ambient_context(), cfg, sampler, 4, 7,
        [](sram::SramCell& cell) { return cell.config.vdd; }, 1);
    EXPECT_EQ(res.n_censored, 0u);
    EXPECT_EQ(res.n_retried, 0u);
    EXPECT_EQ(res.summary.count, 4u);
}

TEST(CensoredYield, ReducesToPlainIntervalWithoutCensoring) {
    const mc::YieldInterval plain = mc::yield_interval(8, 10);
    const mc::YieldInterval cens = mc::censored_yield_interval(8, 10, 0);
    EXPECT_DOUBLE_EQ(cens.point, plain.point);
    EXPECT_DOUBLE_EQ(cens.lower, plain.lower);
    EXPECT_DOUBLE_EQ(cens.upper, plain.upper);
}

TEST(CensoredYield, WorstCaseImputationWidensBothSides) {
    const mc::YieldInterval plain = mc::yield_interval(8, 10);
    const mc::YieldInterval cens = mc::censored_yield_interval(8, 10, 5);
    EXPECT_DOUBLE_EQ(cens.point, 0.8); // passes / evaluated
    // Lower bound assumes all 5 censored samples fail; upper that all pass.
    EXPECT_DOUBLE_EQ(cens.lower, mc::yield_interval(8, 15).lower);
    EXPECT_DOUBLE_EQ(cens.upper, mc::yield_interval(13, 15).upper);
    EXPECT_LT(cens.lower, plain.lower);
    EXPECT_GT(cens.upper - cens.lower, plain.upper - plain.lower);
    // More censoring, wider interval.
    const mc::YieldInterval more = mc::censored_yield_interval(8, 10, 10);
    EXPECT_LT(more.lower, cens.lower);
    EXPECT_GE(more.upper, cens.upper);
}

TEST(CensoredYield, AllCensoredIsVacuousNotFatal) {
    // Every sample censored: no information, so the interval must be the
    // vacuous [0, 1] (NaN point estimate) rather than a contract violation —
    // a fully degraded MC batch still yields a reportable (if useless) bound.
    const mc::YieldInterval vac = mc::censored_yield_interval(0, 0, 5);
    EXPECT_TRUE(std::isnan(vac.point));
    EXPECT_LT(vac.lower, 0.05);
    EXPECT_GT(vac.upper, 0.95);
}

// ------------------------------------------------- runner retry/quarantine

TEST(RunnerRetry, FlakyTaskSucceedsWithinBudget) {
    runner::RunnerConfig cfg = runner_config("retry");
    runner::Runner r(cfg);
    std::atomic<int> calls{0};
    std::vector<int> retry_attempts;
    runner::TaskSpec spec = task("flaky", [&]() -> runner::TaskResult {
        if (++calls < 3)
            throw std::runtime_error("transient blip");
        runner::TaskResult res;
        res.set("v", "ok");
        return res;
    });
    spec.max_attempts = 3;
    spec.on_retry = [&](int attempt) { retry_attempts.push_back(attempt); };
    const runner::TaskId id = r.add(std::move(spec));
    const runner::RunSummary summary = r.run();
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(summary.executed, 1u);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_EQ(summary.quarantined, 0u);
    EXPECT_FALSE(summary.degraded());
    EXPECT_EQ(r.status(id), runner::TaskStatus::kExecuted);
    EXPECT_EQ(r.error(id), nullptr);
    EXPECT_EQ(r.result(id).get("v"), "ok");
    ASSERT_EQ(retry_attempts.size(), 2u);
    EXPECT_EQ(retry_attempts[0], 2);
    EXPECT_EQ(retry_attempts[1], 3);
    // The journal records the attempts spent.
    const std::string journal =
        slurp(cfg.out_dir / (cfg.run_name + "_journal.jsonl"));
    EXPECT_NE(journal.find("\"attempts\":3"), std::string::npos);
}

TEST(RunnerRetry, DefaultMaxAttemptsComesFromConfig) {
    runner::RunnerConfig cfg = runner_config("retry_default");
    cfg.default_max_attempts = 2;
    cfg.keep_going = true;
    runner::Runner r(cfg);
    std::atomic<int> calls{0};
    const runner::TaskId id = r.add(task("doomed", [&]() -> runner::TaskResult {
        ++calls;
        throw std::runtime_error("always fails");
    }));
    r.run();
    EXPECT_EQ(calls.load(), 2); // config-level attempts applied
    ASSERT_NE(r.error(id), nullptr);
    EXPECT_EQ(r.error(id)->attempts(), 2);
}

TEST(RunnerQuarantine, KeepGoingCompletesGraphAndPoisonsDependents) {
    runner::RunnerConfig cfg = runner_config("quarantine");
    cfg.keep_going = true;
    runner::Runner r(cfg);
    const runner::TaskId bad = r.add(task("bad", []() -> runner::TaskResult {
        throw std::runtime_error("boom");
    }));
    runner::TaskSpec child_spec = task("child", []() -> runner::TaskResult {
        return {};
    });
    child_spec.deps = {bad};
    const runner::TaskId child = r.add(std::move(child_spec));
    std::atomic<bool> indep_ran{false};
    const runner::TaskId indep =
        r.add(task("indep", [&]() -> runner::TaskResult {
            indep_ran = true;
            runner::TaskResult res;
            res.set("v", "done");
            return res;
        }));

    const runner::RunSummary summary = r.run(); // must not throw
    EXPECT_TRUE(indep_ran.load());
    EXPECT_EQ(summary.quarantined, 2u);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_EQ(summary.executed, 1u);
    EXPECT_TRUE(summary.degraded());

    EXPECT_EQ(r.status(bad), runner::TaskStatus::kQuarantined);
    ASSERT_NE(r.error(bad), nullptr);
    EXPECT_EQ(r.error(bad)->task_id(), "bad");
    EXPECT_NE(r.error(bad)->cause().find("boom"), std::string::npos);

    EXPECT_EQ(r.status(child), runner::TaskStatus::kQuarantined);
    ASSERT_NE(r.error(child), nullptr);
    EXPECT_NE(r.error(child)->cause().find("upstream dependency 'bad'"),
              std::string::npos);

    EXPECT_EQ(r.status(indep), runner::TaskStatus::kExecuted);
    EXPECT_EQ(r.error(indep), nullptr);
    EXPECT_EQ(r.result(indep).get("v"), "done");

    // Journal carries the quarantine status and the error context.
    const std::string journal =
        slurp(cfg.out_dir / (cfg.run_name + "_journal.jsonl"));
    EXPECT_NE(journal.find("\"cache\":\"quarantined\""), std::string::npos);
    EXPECT_NE(journal.find("boom"), std::string::npos);
    EXPECT_NE(journal.find("upstream dependency"), std::string::npos);

    // The BENCH artifact marks the run degraded, machine-readably.
    const auto bench = runner::Json::parse(
        slurp(cfg.out_dir / ("BENCH_" + cfg.run_name + ".json")));
    ASSERT_TRUE(bench.has_value());
    ASSERT_NE(bench->find("degraded"), nullptr);
    EXPECT_TRUE(bench->find("degraded")->as_bool());
    ASSERT_NE(bench->find("quarantined"), nullptr);
    EXPECT_DOUBLE_EQ(bench->find("quarantined")->as_number(), 2.0);
}

TEST(RunnerQuarantine, SolveExceptionContextIsPreserved) {
    runner::RunnerConfig cfg = runner_config("quarantine_solve");
    cfg.keep_going = true;
    runner::Runner r(cfg);
    const runner::TaskId id =
        r.add(task("sweep_pt", []() -> runner::TaskResult {
            throw forced_failure();
        }));
    r.run();
    ASSERT_NE(r.error(id), nullptr);
    ASSERT_TRUE(r.error(id)->solve_error().has_value());
    EXPECT_EQ(r.error(id)->solve_error()->code,
              spice::SolveErrorCode::kNonConvergence);
}

TEST(RunnerAbort, OriginalExceptionTypeSurvivesWithoutKeepGoing) {
    runner::Runner r(runner_config("abort"));
    r.add(task("bad", []() -> runner::TaskResult {
        throw forced_failure();
    }));
    EXPECT_THROW(r.run(), spice::SolveException);
}

// ------------------------------------------------- cache fault tolerance

TEST(CacheFaults, InjectedLoadCorruptionIsJustAMiss) {
    const fs::path dir = scratch("cache_load");
    const runner::ResultCache cache(dir, runner::CacheMode::kReadWrite);
    runner::CacheKey key("unit");
    key.add("x", 1.0);
    runner::TaskResult res;
    res.set("v", "42");
    ASSERT_TRUE(cache.store(key, res));
    {
        fault::ScopedFaultInjection inject("cache_load@0");
        EXPECT_FALSE(cache.load(key).has_value()); // corrupt read -> miss
    }
    const auto hit = cache.load(key); // entry itself is intact
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->get("v"), "42");
}

TEST(CacheFaults, InjectedStoreFailureIsNonFatal) {
    const fs::path dir = scratch("cache_store");
    const runner::ResultCache cache(dir, runner::CacheMode::kReadWrite);
    runner::CacheKey key("unit");
    key.add("x", 2.0);
    runner::TaskResult res;
    res.set("v", "43");
    {
        fault::ScopedFaultInjection inject("cache_store@0");
        EXPECT_FALSE(cache.store(key, res));
    }
    EXPECT_FALSE(cache.load(key).has_value()); // nothing was persisted
    EXPECT_TRUE(cache.store(key, res));        // and the cache still works
    ASSERT_TRUE(cache.load(key).has_value());
}

// ------------------------------------------------- crash-safe file writes

TEST(FileWriteFaults, AtomicWriteFailsCleanly) {
    const fs::path dir = scratch("atomic_write");
    const fs::path target = dir / "artifact.json";
    {
        fault::ScopedFaultInjection inject("file_write@0");
        EXPECT_FALSE(runner::atomic_write(target, "{}"));
        EXPECT_FALSE(fs::exists(target)); // no partial artifact
    }
    EXPECT_TRUE(runner::atomic_write(target, "{\"ok\":true}"));
    EXPECT_EQ(slurp(target), "{\"ok\":true}");
    // Overwrites go through a temp + rename and leave no debris behind.
    EXPECT_TRUE(runner::atomic_write(target, "v2"));
    EXPECT_EQ(slurp(target), "v2");
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir))
        ++entries;
    EXPECT_EQ(entries, 1u);
}

// ------------------------------------------------- thread-pool guard

TEST(ThreadPoolDeathTest, ThrowingJobTerminatesWithContext) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            runner::ThreadPool pool(1);
            pool.submit([] { throw std::runtime_error("kaput"); },
                        "exploding_job");
            pool.wait_idle();
        },
        "job 'exploding_job'.*must not throw");
}

} // namespace
} // namespace tfetsram
