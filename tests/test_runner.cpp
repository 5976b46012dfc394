// Experiment-runner tests: thread pool, task-graph scheduling order,
// content-addressed cache round-trips and invalidation, setup pruning,
// telemetry artifacts, and determinism across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hier/engine.hpp"
#include "runner/json.hpp"
#include "runner/runner.hpp"
#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "sram/cell.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "util/contracts.hpp"

namespace tfetsram::runner {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch dir per test case.
fs::path scratch(const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("runner_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

RunnerConfig test_config(const std::string& name, std::size_t threads,
                         CacheMode mode = CacheMode::kOff) {
    const fs::path dir = scratch(name);
    RunnerConfig cfg;
    cfg.run_name = name;
    cfg.threads = threads;
    cfg.cache_mode = mode;
    cfg.cache_dir = dir / "cache";
    cfg.out_dir = dir / "out";
    cfg.print_summary = false;
    return cfg;
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleDrainsSubmittedJobs) {
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&] { ++done; });
    pool.wait_idle();
    EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, SingleThreadRunsInline) {
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    pool.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// ------------------------------------------------------------------ JSON

TEST(Json, DumpParseRoundTrip) {
    Json obj = Json::object();
    obj.set("name", "fig6");
    obj.set("wall", 1.25e-3);
    obj.set("count", 21);
    obj.set("ok", true);
    Json arr = Json::array();
    arr.push_back("a,b\nc\"d\\e");
    arr.push_back(Json());
    obj.set("rows", std::move(arr));

    const std::string text = obj.dump();
    const std::optional<Json> back = Json::parse(text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->find("name")->as_string(), "fig6");
    EXPECT_DOUBLE_EQ(back->find("wall")->as_number(), 1.25e-3);
    EXPECT_DOUBLE_EQ(back->find("count")->as_number(), 21);
    EXPECT_TRUE(back->find("ok")->as_bool());
    EXPECT_EQ(back->find("rows")->at(0).as_string(), "a,b\nc\"d\\e");
    EXPECT_TRUE(back->find("rows")->at(1).is_null());
    // Determinism: dumping the reparsed tree reproduces the text.
    EXPECT_EQ(back->dump(), text);
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("[1,]").has_value());
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
    EXPECT_FALSE(Json::parse("\"unterminated").has_value());
    EXPECT_TRUE(Json::parse(" [1, 2, 3] ").has_value());
}

TEST(Json, ValueHoldsOneAlternative) {
    // A benchmark record keeps every round's outputs as Json; one value
    // must not carry storage for every type at once.
    EXPECT_LE(sizeof(Json), sizeof(std::string) + sizeof(void*));

    const Json num(2.5);
    EXPECT_EQ(num.as_string(), "");
    EXPECT_FALSE(num.as_bool());
    EXPECT_EQ(num.size(), 0u);
    EXPECT_EQ(num.find("x"), nullptr);
    EXPECT_TRUE(num.members().empty());
    EXPECT_EQ(Json("text").as_number(), 0.0);

    Json null;
    EXPECT_THROW(null.push_back(Json(1)), contract_violation);
    EXPECT_THROW(null.set("k", Json(1)), contract_violation);
    EXPECT_THROW((void)Json::object().at(0), contract_violation);
    Json arr = Json::array();
    arr.push_back(Json(1));
    EXPECT_THROW((void)arr.at(1), contract_violation);
    EXPECT_EQ(arr.at(0).as_number(), 1.0);

    // Overwriting a member keeps its position.
    Json obj = Json::object();
    obj.set("a", 1);
    obj.set("b", 2);
    obj.set("a", "again");
    EXPECT_EQ(obj.dump(), "{\"a\":\"again\",\"b\":2}");
}

// ----------------------------------------------------------------- cache

TEST(CacheKey, CanonicalTextAndStableHash) {
    CacheKey key("fig6");
    key.add("beta", 1.5).add("assist", "gnd_raising");
    EXPECT_EQ(key.text(), "task=fig6;beta=1.5;assist=gnd_raising");
    EXPECT_EQ(key.hash().size(), 16u);
    CacheKey same("fig6");
    same.add("beta", 1.5).add("assist", "gnd_raising");
    EXPECT_EQ(key.hash(), same.hash());
    CacheKey other("fig6");
    other.add("beta", 2.0).add("assist", "gnd_raising");
    EXPECT_NE(key.hash(), other.hash());
}

TEST(ResultCache, RoundTripsAndInvalidatesOnKeyChange) {
    const fs::path dir = scratch("cache_roundtrip");
    ResultCache cache(dir, CacheMode::kReadWrite);

    CacheKey key("unit");
    key.add("x", 1.0);
    TaskResult result;
    result.set("value", "1.23e-4");
    result.set("note", "comma,quote\",newline\n");
    result.rows = {{"a", "b"}, {"c"}};

    EXPECT_FALSE(cache.load(key).has_value()); // cold miss
    EXPECT_TRUE(cache.store(key, result));
    const std::optional<TaskResult> hit = cache.load(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, result);

    CacheKey changed("unit");
    changed.add("x", 2.0); // different declared input -> different entry
    EXPECT_FALSE(cache.load(changed).has_value());
}

TEST(ResultCache, ModesControlReadAndWrite) {
    const fs::path dir = scratch("cache_modes");
    CacheKey key("unit");
    key.add("x", 1.0);
    TaskResult result;
    result.set("v", "1");

    ResultCache off(dir, CacheMode::kOff);
    EXPECT_FALSE(off.store(key, result));
    EXPECT_TRUE(fs::is_empty(dir) || !fs::exists(dir));

    ResultCache rw(dir, CacheMode::kReadWrite);
    EXPECT_TRUE(rw.store(key, result));
    EXPECT_TRUE(rw.load(key).has_value());
    EXPECT_FALSE(off.load(key).has_value()); // off never reads

    ResultCache ro(dir, CacheMode::kReadOnly);
    EXPECT_TRUE(ro.load(key).has_value()); // reads existing entries
    CacheKey fresh("unit");
    fresh.add("x", 3.0);
    EXPECT_FALSE(ro.store(fresh, result)); // but never writes
    EXPECT_FALSE(rw.load(fresh).has_value());
}

TEST(ResultCache, CorruptEntryIsAMiss) {
    const fs::path dir = scratch("cache_corrupt");
    ResultCache cache(dir, CacheMode::kReadWrite);
    CacheKey key("unit");
    key.add("x", 1.0);
    TaskResult result;
    result.set("v", "1");
    ASSERT_TRUE(cache.store(key, result));
    {
        std::ofstream trash(dir / (key.hash() + ".json"), std::ios::trunc);
        trash << "{not json";
    }
    EXPECT_FALSE(cache.load(key).has_value());
}

// ------------------------------------------------------------- scheduler

/// Diamond: a -> {b, c} -> d. Records completion order under a mutex.
TEST(Runner, DiamondRunsInTopologicalOrderAtEveryThreadCount) {
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        Runner r(test_config(
            "diamond_t" + std::to_string(threads), threads));
        std::mutex m;
        std::vector<std::string> order;
        auto note = [&](const char* id) {
            std::lock_guard<std::mutex> lock(m);
            order.emplace_back(id);
            return TaskResult{};
        };
        const TaskId a = r.add({.id = "a", .fn = [&] { return note("a"); }});
        const TaskId b = r.add(
            {.id = "b", .deps = {a}, .fn = [&] { return note("b"); }});
        const TaskId c = r.add(
            {.id = "c", .deps = {a}, .fn = [&] { return note("c"); }});
        r.add({.id = "d", .deps = {b, c}, .fn = [&] { return note("d"); }});

        const RunSummary summary = r.run();
        EXPECT_EQ(summary.tasks, 4u);
        EXPECT_EQ(summary.executed, 4u);
        ASSERT_EQ(order.size(), 4u);
        const auto pos = [&](const std::string& id) {
            return std::find(order.begin(), order.end(), id) - order.begin();
        };
        EXPECT_EQ(pos("a"), 0) << "threads=" << threads;
        EXPECT_LT(pos("b"), pos("d")) << "threads=" << threads;
        EXPECT_LT(pos("c"), pos("d")) << "threads=" << threads;
    }
}

TEST(Runner, ForwardAndSelfDepsAreRejected) {
    Runner r(test_config("bad_deps", 1));
    EXPECT_THROW(
        r.add({.id = "self", .deps = {0}, .fn = [] { return TaskResult{}; }}),
        contract_violation);
}

TEST(Runner, TaskExceptionPropagatesFromRun) {
    Runner r(test_config("boom", 2));
    r.add({.id = "ok", .fn = [] { return TaskResult{}; }});
    r.add({.id = "boom", .fn = []() -> TaskResult {
               throw std::runtime_error("task blew up");
           }});
    EXPECT_THROW(r.run(), std::runtime_error);
}

TEST(Runner, DeterministicResultsRegardlessOfThreadCount) {
    // Mirror of run_monte_carlo's determinism contract at the graph level:
    // each task's result depends only on its declared inputs, so any
    // schedule produces identical results.
    auto run_with = [](std::size_t threads) {
        Runner r(test_config("det_t" + std::to_string(threads), threads));
        std::vector<TaskId> ids;
        for (int i = 0; i < 16; ++i) {
            ids.push_back(r.add({.id = "t" + std::to_string(i),
                                 .fn = [i] {
                                     TaskResult res;
                                     res.set("v", std::to_string(i * i + 7));
                                     return res;
                                 }}));
        }
        r.run();
        std::vector<std::string> values;
        for (TaskId id : ids)
            values.push_back(r.result(id).get("v"));
        return values;
    };
    const auto serial = run_with(1);
    EXPECT_EQ(serial, run_with(4));
    EXPECT_EQ(serial, run_with(8));
}

// --------------------------------------------- cache x scheduler x journal

TEST(Runner, WarmRunServesHitsPrunesSetupAndMatchesColdResults) {
    const fs::path dir = scratch("warm");
    RunnerConfig cfg;
    cfg.run_name = "warm";
    cfg.threads = 2;
    cfg.cache_mode = CacheMode::kReadWrite;
    cfg.cache_dir = dir / "cache";
    cfg.out_dir = dir / "out";
    cfg.print_summary = false;

    std::atomic<int> setup_runs{0};
    std::atomic<int> work_runs{0};
    auto build = [&](Runner& r) {
        std::vector<TaskId> ids;
        TaskSpec setup;
        setup.id = "setup";
        setup.setup_only = true;
        setup.fn = [&] {
            ++setup_runs;
            return TaskResult{};
        };
        const TaskId s = r.add(std::move(setup));
        for (int i = 0; i < 10; ++i) {
            TaskSpec spec;
            spec.id = "point" + std::to_string(i);
            spec.deps = {s};
            spec.key = CacheKey("warm_point").add("i", std::size_t(i));
            spec.fn = [&work_runs, i] {
                ++work_runs;
                TaskResult res;
                res.set("v", std::to_string(2 * i));
                res.rows.push_back({"row", std::to_string(i)});
                return res;
            };
            ids.push_back(r.add(std::move(spec)));
        }
        return ids;
    };

    Runner cold(cfg);
    const std::vector<TaskId> cold_ids = build(cold);
    const RunSummary cold_summary = cold.run();
    EXPECT_EQ(cold_summary.executed, 11u);
    EXPECT_EQ(cold_summary.cache_hits, 0u);
    EXPECT_EQ(setup_runs.load(), 1);
    EXPECT_EQ(work_runs.load(), 10);

    Runner warm(cfg);
    const std::vector<TaskId> warm_ids = build(warm);
    const RunSummary warm_summary = warm.run();
    EXPECT_EQ(warm_summary.tasks, 11u);
    EXPECT_EQ(warm_summary.cache_hits, 10u);
    EXPECT_EQ(warm_summary.pruned, 1u);
    EXPECT_EQ(warm_summary.executed, 0u);
    EXPECT_EQ(setup_runs.load(), 1) << "setup must be pruned on warm run";
    EXPECT_EQ(work_runs.load(), 10) << "no task body may re-execute";
    // >= 90 % of task executions skipped — the acceptance bar.
    EXPECT_GE(warm_summary.cache_hits + warm_summary.pruned,
              (9 * warm_summary.tasks) / 10);

    for (std::size_t i = 0; i < cold_ids.size(); ++i)
        EXPECT_EQ(cold.result(cold_ids[i]), warm.result(warm_ids[i]));

    // Journal is valid JSONL with one record per task, and the warm run's
    // records are all hit/pruned.
    std::ifstream journal(cfg.out_dir / "warm_journal.jsonl");
    ASSERT_TRUE(journal.is_open());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(journal, line)) {
        ++lines;
        const std::optional<Json> record = Json::parse(line);
        ASSERT_TRUE(record.has_value()) << line;
        const std::string cache = record->find("cache")->as_string();
        EXPECT_TRUE(cache == "hit" || cache == "pruned") << line;
    }
    EXPECT_EQ(lines, 11u);

    // BENCH json artifact reflects the warm tallies.
    std::ifstream bench_file(cfg.out_dir / "BENCH_warm.json");
    ASSERT_TRUE(bench_file.is_open());
    std::stringstream buf;
    buf << bench_file.rdbuf();
    const std::optional<Json> bench = Json::parse(buf.str());
    ASSERT_TRUE(bench.has_value());
    EXPECT_DOUBLE_EQ(bench->find("cache_hits")->as_number(), 10);
    EXPECT_DOUBLE_EQ(bench->find("executed")->as_number(), 0);
}

TEST(Runner, BenchMetricsFlowIntoJournalAndBenchOnColdAndWarmRuns) {
    // The "bench:" TaskResult channel: scalar metrics land in the task's
    // journal record and the BENCH artifact's task_metrics object, with
    // non-finite values mapped to JSON null — and because the values ride
    // the cached result, a warm (hit) run reproduces them identically.
    const fs::path dir = scratch("metrics");
    RunnerConfig cfg;
    cfg.run_name = "metrics";
    cfg.threads = 1;
    cfg.cache_mode = CacheMode::kReadWrite;
    cfg.cache_dir = dir / "cache";
    cfg.out_dir = dir / "out";
    cfg.print_summary = false;

    const auto run_once = [&] {
        Runner r(cfg);
        TaskSpec spec;
        spec.id = "yield";
        spec.key = CacheKey("metrics_point").add("i", 1.0);
        spec.fn = [] {
            TaskResult res;
            res.set("display", "for the console table");
            res.set("bench:p_fail", "3.2e-05");
            res.set("bench:sigma_level", "inf"); // non-finite -> null
            res.set("bench:note", "not-a-number-text");
            return res;
        };
        r.add(std::move(spec));
        return r.run();
    };

    const auto check_artifacts = [&](const char* which) {
        std::ifstream journal(cfg.out_dir / "metrics_journal.jsonl");
        ASSERT_TRUE(journal.is_open()) << which;
        std::string line;
        ASSERT_TRUE(std::getline(journal, line)) << which;
        const std::optional<Json> record = Json::parse(line);
        ASSERT_TRUE(record.has_value()) << which << ": " << line;
        const Json* metrics = record->find("metrics");
        ASSERT_NE(metrics, nullptr) << which << ": " << line;
        EXPECT_DOUBLE_EQ(metrics->find("p_fail")->as_number(), 3.2e-05)
            << which;
        EXPECT_TRUE(metrics->find("sigma_level")->is_null()) << which;
        EXPECT_EQ(metrics->find("note")->as_string(), "not-a-number-text")
            << which;
        EXPECT_EQ(metrics->find("display"), nullptr)
            << which << ": unprefixed values must stay out of the journal";

        std::ifstream bench_file(cfg.out_dir / "BENCH_metrics.json");
        ASSERT_TRUE(bench_file.is_open()) << which;
        std::stringstream buf;
        buf << bench_file.rdbuf();
        const std::optional<Json> bench = Json::parse(buf.str());
        ASSERT_TRUE(bench.has_value()) << which;
        const Json* task_metrics = bench->find("task_metrics");
        ASSERT_NE(task_metrics, nullptr) << which;
        const Json* task = task_metrics->find("yield");
        ASSERT_NE(task, nullptr) << which;
        EXPECT_DOUBLE_EQ(task->find("p_fail")->as_number(), 3.2e-05)
            << which;
    };

    const RunSummary cold = run_once();
    EXPECT_EQ(cold.executed, 1u);
    check_artifacts("cold");

    const RunSummary warm = run_once();
    EXPECT_EQ(warm.cache_hits, 1u);
    check_artifacts("warm");
}

TEST(Runner, CacheOffExecutesEverything) {
    const fs::path dir = scratch("cache_off_run");
    RunnerConfig cfg;
    cfg.run_name = "off";
    cfg.threads = 2;
    cfg.cache_mode = CacheMode::kOff;
    cfg.cache_dir = dir / "cache";
    cfg.out_dir = dir / "out";
    cfg.print_summary = false;

    for (int pass = 0; pass < 2; ++pass) {
        Runner r(cfg);
        TaskSpec spec;
        spec.id = "p";
        spec.key = CacheKey("off_point").add("i", 1.0);
        spec.fn = [] {
            TaskResult res;
            res.set("v", "x");
            return res;
        };
        r.add(std::move(spec));
        const RunSummary summary = r.run();
        EXPECT_EQ(summary.executed, 1u);
        EXPECT_EQ(summary.cache_hits, 0u);
    }
    EXPECT_FALSE(fs::exists(dir / "cache"));
}

// ------------------------------------------------- telemetry counter schema

/// The solver keys a journal line may carry, in emission order, with the
/// SolverStats member each reports. Written out here rather than taken
/// from the library so a schema refactor that moves, renames or drops a
/// key fails this contract.
struct WireField {
    const char* name;
    std::uint64_t spice::SolverStats::*member;
};
constexpr WireField kWireFields[] = {
    {"nr_iterations", &spice::SolverStats::nr_iterations},
    {"dc_solves", &spice::SolverStats::dc_solves},
    {"transient_steps", &spice::SolverStats::transient_steps},
    {"transient_solves", &spice::SolverStats::transient_solves},
    {"assemblies", &spice::SolverStats::assemblies},
    {"lu_factorizations", &spice::SolverStats::lu_factorizations},
    {"line_search_backtracks", &spice::SolverStats::line_search_backtracks},
    {"deadline_polls", &spice::SolverStats::deadline_polls},
    {"cancelled_solves", &spice::SolverStats::cancelled_solves},
    {"sparse_refactorizations", &spice::SolverStats::sparse_refactorizations},
    {"sparse_symbolic_analyses",
     &spice::SolverStats::sparse_symbolic_analyses},
    {"sparse_pattern_nnz", &spice::SolverStats::sparse_pattern_nnz},
    {"sparse_lu_nnz", &spice::SolverStats::sparse_lu_nnz},
    {"sparse_static_pivot_hits",
     &spice::SolverStats::sparse_static_pivot_hits},
    {"sparse_pivot_fallbacks", &spice::SolverStats::sparse_pivot_fallbacks},
    {"sparse_ordering_us", &spice::SolverStats::sparse_ordering_us},
    {"batched_evals", &spice::SolverStats::batched_evals},
    {"hier_promotions", &spice::SolverStats::hier_promotions},
    {"hier_demotions", &spice::SolverStats::hier_demotions},
    {"hier_relinearizations", &spice::SolverStats::hier_relinearizations},
    {"hier_guard_retries", &spice::SolverStats::hier_guard_retries},
    {"hier_active_unknowns", &spice::SolverStats::hier_active_unknowns},
};

const WireField* wire_field(const std::string& name) {
    for (const WireField& f : kWireFields)
        if (name == f.name)
            return &f;
    return nullptr;
}

bool is_gauge(const std::string& name) {
    return name == "sparse_pattern_nnz" || name == "sparse_lu_nnz" ||
           name == "hier_active_unknowns";
}

Json read_json_file(const fs::path& path) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::optional<Json> parsed = Json::parse(buf.str());
    TFET_ASSERT(parsed.has_value());
    return *parsed;
}

TEST(TelemetrySchema, JournalAndBenchReportEveryCounterOfEveryTask) {
    // Four tasks that between them light up every group of the counter
    // schema: a dense hold solve (core counters only, plus the polls every
    // cancellable task context makes), the same solve pinned to the sparse
    // kernel, a mixed-level array write (hier counters), and a task whose
    // iteration budget expires (a cancelled solve).
    RunnerConfig cfg = test_config("schema", 1);
    std::map<std::string, spice::SolverStats> totals;
    std::mutex totals_mutex;
    const auto capture = [&](const std::string& id) {
        std::lock_guard<std::mutex> lock(totals_mutex);
        totals[id] = spice::ambient_context().stats();
    };
    const sram::CellConfig cell_cfg =
        sram::proposed_design(0.8, device::make_model_set()).config;
    const auto hold_task = [&](const std::string& id,
                               spice::SolverMode mode) {
        TaskSpec spec;
        spec.id = id;
        spec.fn = [&, id] {
            sram::SramCell cell = sram::build_cell(cell_cfg);
            const double p = sram::worst_hold_static_power(cell);
            TFET_ASSERT(p > 0.0);
            capture(id);
            return TaskResult{};
        };
        spice::SimConfig sim;
        sim.mode = mode;
        spec.sim = sim;
        return spec;
    };

    Runner r(cfg);
    r.add(hold_task("hold_dense", spice::SolverMode::kDense));
    r.add(hold_task("hold_sparse", spice::SolverMode::kSparse));
    {
        TaskSpec spec;
        spec.id = "hier_write";
        spec.fn = [&] {
            array::ArrayConfig acfg;
            acfg.rows = 4;
            acfg.cols = 2;
            acfg.cell = cell_cfg;
            acfg.read_assist = sram::Assist::kRaGndLowering;
            hier::ArrayEngine eng(acfg, hier::EngineMode::kMixed);
            TFET_ASSERT(eng.initialize(std::vector<std::vector<bool>>(
                4, std::vector<bool>(2, false))));
            TFET_ASSERT(eng.write(2, 1, true).ok);
            capture("hier_write");
            return TaskResult{};
        };
        r.add(std::move(spec));
    }
    {
        TaskSpec spec;
        spec.id = "budget";
        spec.fn = [&] {
            spice::Circuit c;
            const spice::NodeId in = c.add_node("in");
            const spice::NodeId mid = c.add_node("mid");
            c.add_vsource("V1", in, spice::kGround, spice::Waveform::dc(1.0));
            c.add_resistor("R1", in, mid, 1e3);
            c.add_resistor("R2", mid, spice::kGround, 1e3);
            const spice::SimContext& ctx = spice::ambient_context();
            TFET_ASSERT(spice::solve_dc(c, ctx, {}).converged);
            TFET_ASSERT(!spice::solve_dc(c, ctx, {}).converged); // budget spent
            capture("budget");
            return TaskResult{};
        };
        spice::SimConfig sim;
        sim.iteration_budget = 1;
        spec.sim = sim;
        r.add(std::move(spec));
    }
    const RunSummary summary = r.run();
    ASSERT_EQ(summary.executed, 4u);
    ASSERT_EQ(totals.size(), 4u);

    // Exact key sequence per journal line: the dense-only shape omits the
    // sparse and hier groups; batched_evals and cancelled_solves appear
    // only where the task evaluated devices or had a solve cancelled.
    const std::vector<std::string> core = {
        "task", "key", "cache", "wall_s", "nr_iterations", "dc_solves",
        "transient_steps", "transient_solves", "assemblies",
        "lu_factorizations", "line_search_backtracks", "deadline_polls"};
    const std::vector<std::string> sparse = {
        "sparse_refactorizations", "sparse_symbolic_analyses",
        "sparse_pattern_nnz",      "sparse_lu_nnz",
        "sparse_static_pivot_hits", "sparse_pivot_fallbacks",
        "sparse_ordering_us"};
    const std::vector<std::string> hier = {
        "hier_promotions", "hier_demotions", "hier_relinearizations",
        "hier_guard_retries", "hier_active_unknowns"};
    const auto concat = [](std::vector<std::string> a,
                           const std::vector<std::string>& b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    std::map<std::string, std::vector<std::string>> expected_keys;
    expected_keys["hold_dense"] = concat(core, {"batched_evals"});
    expected_keys["hold_sparse"] =
        concat(concat(core, sparse), {"batched_evals"});
    expected_keys["hier_write"] =
        concat(concat(core, {"batched_evals"}), hier);
    expected_keys["budget"] = concat(core, {"cancelled_solves"});

    std::ifstream journal(cfg.out_dir / "schema_journal.jsonl");
    ASSERT_TRUE(journal.is_open());
    std::set<std::string> seen;
    std::string line;
    while (std::getline(journal, line)) {
        const std::optional<Json> record = Json::parse(line);
        ASSERT_TRUE(record.has_value()) << line;
        const std::string id = record->find("task")->as_string();
        ASSERT_TRUE(totals.count(id)) << line;
        seen.insert(id);
        std::vector<std::string> keys;
        for (const auto& [key, value] : record->members())
            keys.push_back(key);
        EXPECT_EQ(keys, expected_keys[id]) << line;
        // Every reported counter is the task's own context total, and
        // every counter left out of the line is zero.
        const spice::SolverStats& want = totals[id];
        for (const WireField& f : kWireFields) {
            const Json* got = record->find(f.name);
            if (got == nullptr) {
                EXPECT_EQ(want.*f.member, 0u) << id << " " << f.name;
                continue;
            }
            EXPECT_EQ(static_cast<std::uint64_t>(got->as_number()),
                      want.*f.member)
                << id << " " << f.name;
        }
    }
    EXPECT_EQ(seen.size(), 4u);

    // BENCH: the run totals as a key->value map (its key order is not part
    // of the contract): counters sum over the records, gauges take their
    // maximum. With every group active, all schema keys are present.
    std::map<std::string, std::uint64_t> want_bench;
    for (const WireField& f : kWireFields) {
        std::uint64_t v = 0;
        for (const auto& [id, t] : totals)
            v = is_gauge(f.name) ? std::max(v, t.*f.member)
                                 : v + t.*f.member;
        want_bench[f.name] = v;
    }
    const Json bench = read_json_file(cfg.out_dir / "BENCH_schema.json");
    std::map<std::string, std::uint64_t> got_bench;
    for (const auto& [key, value] : bench.members())
        if (wire_field(key) != nullptr)
            got_bench[key] = static_cast<std::uint64_t>(value.as_number());
    EXPECT_EQ(got_bench, want_bench);

    // RunSummary carries the same totals the BENCH artifact printed.
    for (const WireField& f : kWireFields)
        EXPECT_EQ(summary.solver.*f.member, want_bench[f.name]) << f.name;
}

} // namespace
} // namespace tfetsram::runner
