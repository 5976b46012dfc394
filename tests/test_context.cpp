// SimContext tests: deterministic seed derivation, env-snapshot layering,
// with_options views, legacy-shim attribution, per-task isolation when
// concurrent runner tasks pin conflicting backends, and the Monte-Carlo
// inner-pool attribution regression (a task's journal record must cover
// work its MC pool did on other threads).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "mc/monte_carlo.hpp"
#include "runner/json.hpp"
#include "runner/runner.hpp"
#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "util/contracts.hpp"
#include "util/env.hpp"

namespace tfetsram {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch dir per test case.
fs::path scratch(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("ctx_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// Linear resistor ladder: converges in one Newton sweep on either
/// kernel, so per-task counter totals are exact and deterministic.
spice::Circuit make_ladder(std::size_t sections) {
    spice::Circuit c;
    spice::NodeId prev = c.add_node("in");
    c.add_vsource("V", prev, spice::kGround, spice::Waveform::dc(1.0));
    for (std::size_t i = 0; i < sections; ++i) {
        const spice::NodeId n = c.add_node("n" + std::to_string(i));
        c.add_resistor("Rs" + std::to_string(i), prev, n, 1e3);
        c.add_resistor("Rg" + std::to_string(i), n, spice::kGround, 2e3);
        prev = n;
    }
    return c;
}

// ------------------------------------------------------------------ seeds

TEST(ContextSeeds, DerivationIsDeterministicPerStream) {
    spice::SimConfig cfg;
    cfg.seed = 0x1234;
    const spice::SimContext a(cfg);
    const spice::SimContext b(cfg);
    for (std::uint64_t s = 0; s < 8; ++s) {
        EXPECT_EQ(a.derive_seed(s), b.derive_seed(s));
        EXPECT_EQ(a.child(s).seed(), a.derive_seed(s));
    }
    // Streams decorrelate, and so do different roots.
    EXPECT_NE(a.derive_seed(0), a.derive_seed(1));
    cfg.seed = 0x1235;
    const spice::SimContext c(cfg);
    EXPECT_NE(a.derive_seed(0), c.derive_seed(0));
}

TEST(ContextSeeds, ChildStartsWithZeroedStats) {
    spice::SimConfig cfg;
    const spice::SimContext parent(cfg);
    {
        const spice::ScopedContext bind(parent);
        spice::Circuit ckt = make_ladder(4);
        ASSERT_TRUE(spice::solve_dc(ckt, parent.options()).converged);
    }
    EXPECT_GT(parent.stats().dc_solves, 0u);
    const spice::SimContext kid = parent.child(7);
    EXPECT_EQ(kid.stats().dc_solves, 0u);
    EXPECT_EQ(kid.stats().nr_iterations, 0u);
}

// ------------------------------------------------------------ env layering

TEST(ContextConfig, FromEmptySnapshotKeepsBuiltInDefaults) {
    const env::EnvSnapshot snap{};
    const spice::SimConfig cfg = spice::SimConfig::from_env(snap);
    EXPECT_EQ(cfg.mode, spice::SolverMode::kAuto);
    EXPECT_EQ(cfg.seed, spice::SimConfig{}.seed);
    EXPECT_EQ(cfg.out_dir, fs::path("bench_csv"));
    EXPECT_TRUE(cfg.fault_spec.empty());
}

TEST(ContextConfig, FromSnapshotLayersEverySetKnob) {
    env::EnvSnapshot snap{};
    snap.solver = "sparse";
    snap.seed = 123;
    snap.out_dir = "o";
    const spice::SimConfig cfg = spice::SimConfig::from_env(snap);
    EXPECT_EQ(cfg.mode, spice::SolverMode::kSparse);
    EXPECT_EQ(cfg.seed, 123u);
    EXPECT_EQ(cfg.out_dir, fs::path("o"));

    snap.solver = "dense";
    EXPECT_EQ(spice::SimConfig::from_env(snap).mode,
              spice::SolverMode::kDense);
}

// ------------------------------------------------------------------- views

TEST(ContextViews, WithOptionsSharesTheParentStatsSink) {
    spice::SimConfig cfg;
    const spice::SimContext ctx(cfg);
    spice::SolverOptions loose;
    loose.vntol = 5e-4;
    const spice::SimContext view = ctx.with_options(loose);
    EXPECT_EQ(&view.stats(), &ctx.stats());
    EXPECT_DOUBLE_EQ(view.options().vntol, 5e-4);

    const spice::ScopedContext bind(view);
    spice::Circuit ckt = make_ladder(4);
    ASSERT_TRUE(spice::solve_dc(ckt, view.options()).converged);
    EXPECT_GT(ctx.stats().dc_solves, 0u);
}

// ------------------------------------------------------------ legacy shims

TEST(ContextShims, LegacySolveAttributesToTheBoundContext) {
    spice::SimConfig cfg;
    const spice::SimContext ctx(cfg);
    spice::Circuit ckt = make_ladder(6);
    {
        const spice::ScopedContext bind(ctx);
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(spice::solve_dc(ckt, {}).converged);
        // The thread-local stats view is the bound context's sink.
        EXPECT_EQ(spice::solver_stats().dc_solves, ctx.stats().dc_solves);
    }
    EXPECT_EQ(ctx.stats().dc_solves, 3u);
    // Outside the binding, new work lands on the per-thread default
    // context, not on ctx.
    ASSERT_TRUE(spice::solve_dc(ckt, {}).converged);
    EXPECT_EQ(ctx.stats().dc_solves, 3u);
}

// ------------------------------------------- concurrent per-task isolation

TEST(ContextIsolation, ConcurrentTasksKeepConflictingPoliciesApart) {
    const fs::path dir = scratch("isolation");
    runner::RunnerConfig cfg;
    cfg.run_name = "isolation";
    cfg.threads = 2;
    cfg.cache_mode = runner::CacheMode::kOff;
    cfg.cache_dir = dir / "cache";
    cfg.out_dir = dir / "out";
    cfg.print_summary = false;

    struct Observed {
        std::optional<spice::SolverKind> kind;
        std::uint64_t dc_solves = 0;
        double vntol = 0.0;
        double v_mid = 0.0;
    };
    Observed dense_seen;
    Observed sparse_seen;
    // Rendezvous so the two tasks genuinely overlap (this test runs in
    // ci.sh's TSan lane); bounded so a sequential schedule can't hang it.
    std::atomic<int> started{0};
    const auto rendezvous = [&started] {
        started.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (started.load() < 2 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    };
    const auto workload = [&rendezvous](Observed& out, std::size_t solves) {
        rendezvous();
        spice::Circuit ckt = make_ladder(12);
        for (std::size_t i = 0; i < solves; ++i) {
            const spice::DcResult r =
                spice::solve_dc(ckt, spice::ambient_context().options());
            TFET_ASSERT(r.converged);
            out.v_mid = spice::node_voltage(r.x, ckt.node("n5"));
        }
        out.kind = ckt.workspace().kind;
        out.dc_solves = spice::ambient_context().stats().dc_solves;
        out.vntol = spice::ambient_context().options().vntol;
        return runner::TaskResult{};
    };

    runner::Runner r(cfg);
    {
        runner::TaskSpec spec;
        spec.id = "dense_task";
        spec.fn = [&] { return workload(dense_seen, 5); };
        spice::SimConfig sim;
        sim.mode = spice::SolverMode::kDense;
        sim.options.vntol = 1e-7;
        spec.sim = sim;
        r.add(std::move(spec));
    }
    {
        runner::TaskSpec spec;
        spec.id = "sparse_task";
        spec.fn = [&] { return workload(sparse_seen, 9); };
        spice::SimConfig sim;
        sim.mode = spice::SolverMode::kSparse;
        sim.options.vntol = 2e-6;
        spec.sim = sim;
        r.add(std::move(spec));
    }
    const runner::RunSummary summary = r.run();

    // Each task saw exactly its own backend, tolerances, and counters —
    // a fresh per-task context means raw totals are the task's delta.
    ASSERT_TRUE(dense_seen.kind.has_value());
    EXPECT_EQ(*dense_seen.kind, spice::SolverKind::kDense);
    EXPECT_EQ(dense_seen.dc_solves, 5u);
    EXPECT_DOUBLE_EQ(dense_seen.vntol, 1e-7);
    ASSERT_TRUE(sparse_seen.kind.has_value());
    EXPECT_EQ(*sparse_seen.kind, spice::SolverKind::kSparse);
    EXPECT_EQ(sparse_seen.dc_solves, 9u);
    EXPECT_DOUBLE_EQ(sparse_seen.vntol, 2e-6);
    // Same physics on both kernels.
    EXPECT_NEAR(dense_seen.v_mid, sparse_seen.v_mid, 1e-9);
    // The run summary aggregates the per-task sinks.
    EXPECT_EQ(summary.solver.dc_solves, 14u);
}

// ----------------------------------------- MC inner-pool stats attribution

TEST(ContextStats, JournalCoversInnerMonteCarloPoolWork) {
    // Ground truth: the same Monte-Carlo batch run serially under an
    // explicit context. Draws are pre-generated from one Rng, so the
    // solver work is independent of the pool's thread count.
    const device::ModelSet models = device::make_model_set();
    const sram::CellConfig cell_cfg =
        sram::proposed_design(0.8, models).config;
    mc::VariationSpec vspec;
    vspec.table_spec.points = 121; // coarse tables keep the test quick
    const mc::TfetVariationSampler sampler(vspec);
    const sram::MetricOptions opts;
    const auto metric = [&opts](sram::SramCell& cell) {
        return sram::worst_hold_static_power(cell, opts);
    };
    constexpr std::size_t kSamples = 8;

    const spice::SimContext serial(spice::SimConfig{});
    mc::run_monte_carlo(serial, cell_cfg, sampler, kSamples, 99, metric,
                        /*threads=*/1);
    const std::uint64_t truth = serial.stats().nr_iterations;
    ASSERT_GT(truth, 0u);

    // The regression: a runner task fanning the batch to a 4-thread inner
    // pool must journal the full total, not just the solves that happened
    // to land on the task's own thread.
    const fs::path dir = scratch("mc_journal");
    runner::RunnerConfig cfg;
    cfg.run_name = "mcstats";
    cfg.threads = 1;
    cfg.cache_mode = runner::CacheMode::kOff;
    cfg.cache_dir = dir / "cache";
    cfg.out_dir = dir / "out";
    cfg.print_summary = false;
    runner::Runner r(cfg);
    runner::TaskSpec spec;
    spec.id = "mc_batch";
    spec.fn = [&] {
        mc::run_monte_carlo(spice::ambient_context(), cell_cfg, sampler,
                            kSamples, 99, metric, /*threads=*/4);
        return runner::TaskResult{};
    };
    r.add(std::move(spec));
    const runner::RunSummary summary = r.run();
    EXPECT_EQ(summary.solver.nr_iterations, truth);

    std::ifstream journal(cfg.out_dir / "mcstats_journal.jsonl");
    ASSERT_TRUE(journal.is_open());
    std::string line;
    ASSERT_TRUE(std::getline(journal, line));
    const std::optional<runner::Json> record = runner::Json::parse(line);
    ASSERT_TRUE(record.has_value()) << line;
    const runner::Json* task = record->find("task");
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->as_string(), "mc_batch");
    const runner::Json* iters = record->find("nr_iterations");
    ASSERT_NE(iters, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(iters->as_number()), truth);
}

// ------------------------------------------------ counter schema arithmetic

using spice::kSolverStatsFields;
using spice::SolverStats;
using spice::StatField;
using spice::StatKind;

/// Every field set through the schema to a distinct value above `base`.
SolverStats distinct_stats(std::uint64_t base) {
    SolverStats s;
    for (const StatField& f : kSolverStatsFields)
        s.*f.member = ++base;
    return s;
}

TEST(StatsSchema, CountersAddAndSubtractExactly) {
    const SolverStats a = distinct_stats(100);
    const SolverStats b = distinct_stats(1000);
    SolverStats sum = a;
    sum += b;
    const SolverStats back = sum - b;
    for (const StatField& f : kSolverStatsFields) {
        if (f.kind != StatKind::kCounter)
            continue;
        EXPECT_EQ(sum.*f.member, a.*f.member + b.*f.member) << f.name;
        EXPECT_EQ(back.*f.member, a.*f.member) << f.name;
    }
}

TEST(StatsSchema, GaugesFoldToTheLargerValue) {
    const SolverStats small = distinct_stats(100);
    const SolverStats large = distinct_stats(1000);
    SolverStats up = small;
    up += large;
    SolverStats down = large;
    down += small;
    for (const StatField& f : kSolverStatsFields) {
        if (f.kind != StatKind::kGauge)
            continue;
        EXPECT_EQ(up.*f.member, large.*f.member) << f.name;
        EXPECT_EQ(down.*f.member, large.*f.member) << f.name;
    }
}

TEST(StatsSchema, SubtractionCarriesAGaugeOnlyWhenItsGroupDidWork) {
    const SolverStats before = distinct_stats(100);
    const SolverStats idle = before - before;
    for (const StatField& g : kSolverStatsFields) {
        if (g.kind == StatKind::kGauge) {
            EXPECT_EQ(idle.*g.member, 0u) << g.name;
        }
    }

    // A window in which exactly one counter moved carries precisely the
    // gauges of that counter's group.
    for (const StatField& c : kSolverStatsFields) {
        if (c.kind != StatKind::kCounter)
            continue;
        SolverStats after = before;
        ++(after.*c.member);
        const SolverStats d = after - before;
        EXPECT_EQ(d.*c.member, 1u) << c.name;
        for (const StatField& g : kSolverStatsFields) {
            if (g.kind != StatKind::kGauge)
                continue;
            const std::uint64_t want =
                g.group == c.group ? after.*g.member : 0u;
            EXPECT_EQ(d.*g.member, want) << c.name << " -> " << g.name;
        }
    }

    // The historical rules, by name: sparse gauges ride a symbolic
    // analysis or refactorization, the hier gauge rides an engine event,
    // and neither rides dense or fast-path-only work.
    SolverStats sparse = before;
    ++sparse.sparse_symbolic_analyses;
    EXPECT_EQ((sparse - before).sparse_lu_nnz, before.sparse_lu_nnz);
    EXPECT_EQ((sparse - before).hier_active_unknowns, 0u);
    SolverStats hier = before;
    ++hier.hier_relinearizations;
    EXPECT_EQ((hier - before).hier_active_unknowns,
              before.hier_active_unknowns);
    EXPECT_EQ((hier - before).sparse_pattern_nnz, 0u);
    SolverStats fast_path = before;
    ++fast_path.sparse_static_pivot_hits;
    ++fast_path.nr_iterations;
    EXPECT_EQ((fast_path - before).sparse_pattern_nnz, 0u);
}

} // namespace
} // namespace tfetsram
