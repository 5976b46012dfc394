#pragma once
// Experiment runner: a task-graph scheduler over the shared ThreadPool,
// fused with the result cache and telemetry. A bench describes its figure
// as Task nodes (sweep points, setup steps) with dependencies; run()
// executes the ready frontier concurrently, serves cache hits without
// executing, prunes setup work nothing needs, and journals every task.
//
//   Runner r(RunnerConfig::from_env("fig6_write_assist"));
//   TaskId models = r.add({.id = "models", .setup_only = true, .fn = ...});
//   for (...) r.add({.id = ..., .deps = {models}, .key = ..., .fn = ...});
//   r.run();                      // topological, pool-parallel, cached
//   r.result(id).get("wlcrit");   // identical on cold and warm runs

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runner/cache.hpp"
#include "spice/context.hpp"
#include "runner/task_error.hpp"
#include "runner/telemetry.hpp"
#include "runner/thread_pool.hpp"

namespace tfetsram::runner {

using TaskId = std::size_t;
using TaskFn = std::function<TaskResult()>;

/// One node of the task graph.
struct TaskSpec {
    // Every member carries a default initializer so designated-initializer
    // construction ({.id = ..., .fn = ...}) stays warning-clean under
    // -Wextra as fields are added.
    std::string id{};           ///< human-readable name for the journal
    std::vector<TaskId> deps{}; ///< must all be ids returned by earlier add()s
    /// Declared inputs; an empty key marks the task uncacheable (it always
    /// executes — unless pruned — and its result is never persisted).
    CacheKey key{};
    /// Pure setup (builds shared state, result unused): skipped when every
    /// dependent was a cache hit or itself pruned.
    bool setup_only = false;
    TaskFn fn{};
    /// Execution attempts before the task counts as failed; 0 uses
    /// RunnerConfig::default_max_attempts.
    int max_attempts = 0;
    /// Perturbed-restart hook, called before each retry (attempt >= 2) so
    /// the task can nudge its initial guess / reseed before running again.
    std::function<void(int attempt)> on_retry{};
    /// Simulation-context override for this task. When set, the task runs
    /// under a SimContext built from this config instead of the runner's
    /// RunnerConfig::sim — e.g. to pin a solver backend or tighten
    /// tolerances for one sweep leg without touching process state.
    std::optional<spice::SimConfig> sim = std::nullopt;
};

struct RunnerConfig {
    std::string run_name = "run";
    std::size_t threads = 0; ///< 0 = hardware concurrency
    CacheMode cache_mode = CacheMode::kReadWrite;
    std::filesystem::path cache_dir = ".tfetsram_cache";
    std::filesystem::path out_dir = "bench_csv";
    bool telemetry = true;    ///< write journal + BENCH json
    bool print_summary = true; ///< render the summary table to stdout
    /// Attempts per task when TaskSpec::max_attempts is 0.
    int default_max_attempts = 1;
    /// Quarantine failed tasks (and their dependents) and complete the
    /// rest of the graph instead of aborting on the first failure.
    bool keep_going = false;
    /// Simulation-context template: every task without a TaskSpec::sim
    /// override runs under a fresh SimContext built from this config, so
    /// per-task solver counters are attributed exactly — including work a
    /// task fans out to an inner Monte-Carlo pool.
    spice::SimConfig sim;
    /// Watchdog wall-clock budget per task attempt [s]
    /// (TFETSRAM_TASK_TIMEOUT; 0 = unlimited). The same knob arms the
    /// task contexts' cooperative deadline; the watchdog is the backstop
    /// that cancels attempts stuck in non-cooperative work.
    double task_timeout_s = 0.0;
    /// Watchdog heartbeat-stall window [s] (TFETSRAM_STALL_TIMEOUT;
    /// 0 = stall detection off): an attempt whose token progress counter
    /// does not advance for this long is cancelled.
    double stall_timeout_s = 0.0;
    /// First retry's backoff delay [s] (TFETSRAM_BACKOFF_BASE;
    /// 0 = retry immediately, the historical behavior). Delays double per
    /// attempt with deterministic jitter — see retry_backoff_s().
    double backoff_base_s = 0.0;
    /// Backoff delay cap [s] (TFETSRAM_BACKOFF_MAX).
    double backoff_max_s = 1.0;
    /// Bounded-queue backpressure: at most this many tasks submitted to
    /// the pool at once (0 = 2x the worker count). Keeps a huge ready
    /// frontier from materializing thousands of queued closures and lets
    /// a drain-and-cancel shutdown stop quickly.
    std::size_t max_in_flight = 0;

    /// Standard environment wiring: TFETSRAM_CACHE, TFETSRAM_OUT_DIR,
    /// TFETSRAM_THREADS, TFETSRAM_RETRIES, TFETSRAM_KEEP_GOING, plus the
    /// SimConfig env set (TFETSRAM_SOLVER, TFETSRAM_SEED, TFETSRAM_FAULTS)
    /// captured in one snapshot (see docs/RUNNER.md and
    /// docs/ARCHITECTURE.md).
    static RunnerConfig from_env(std::string run_name);
};

/// Deterministic exponential backoff before retry `attempt` (attempt >= 2;
/// attempt 1 is the initial try): base * 2^(attempt-2), scaled by a jitter
/// factor in [0.5, 1.0) derived from (seed, attempt) — splitmix64, no
/// global RNG — and capped at max_s. Pure function: the same task retries
/// with the same delays on every rerun, while different tasks (different
/// context seeds) desynchronize instead of retrying in lockstep.
[[nodiscard]] double retry_backoff_s(int attempt, std::uint64_t seed,
                                     double base_s, double max_s);

class Runner {
public:
    explicit Runner(RunnerConfig config);

    /// Register a task. Dependencies must already be registered (dep id <
    /// this id), which makes cycles unrepresentable; violations throw
    /// contract_violation.
    TaskId add(TaskSpec spec);

    /// Execute the graph. Throws the first task exception encountered
    /// (after quiescing in-flight tasks) — unless keep_going, in which
    /// case failed tasks are quarantined (with their dependents) and the
    /// rest of the graph completes. Idempotent per Runner: call once.
    RunSummary run();

    /// Result of a finished task (valid after run(); pruned and
    /// quarantined tasks hold an empty result).
    [[nodiscard]] const TaskResult& result(TaskId id) const;

    /// Final status of a task (valid after run()).
    [[nodiscard]] TaskStatus status(TaskId id) const;

    /// Error context of a failed or quarantined task; nullptr otherwise.
    [[nodiscard]] const TaskError* error(TaskId id) const;

    /// Drain-and-cancel shutdown: in-flight task contexts are cancelled
    /// through their tokens (by the watchdog thread), still-queued tasks
    /// are recorded as TaskStatus::kCancelled without running, and run()
    /// returns its (degraded) summary instead of throwing. Safe from any
    /// thread; the signal path (runner/signal.hpp) has the same effect
    /// process-wide. Idempotent.
    void request_cancel() {
        cancel_requested_.store(true, std::memory_order_release);
    }

    [[nodiscard]] const RunnerConfig& config() const { return config_; }
    [[nodiscard]] const ResultCache& cache() const { return cache_; }

private:
    struct Node {
        TaskSpec spec;
        TaskResult result;
        std::vector<TaskId> dependents;
        std::size_t waiting = 0; ///< unfinished deps (scheduler-owned)
        TaskStatus status = TaskStatus::kExecuted;
        bool done = false;
        bool poisoned = false; ///< an upstream dependency was quarantined
        std::string poison_source; ///< id of the quarantined ancestor
        std::shared_ptr<TaskError> error; ///< failed/quarantined context
    };

    RunnerConfig config_;
    ResultCache cache_;
    Telemetry telemetry_;
    std::vector<Node> nodes_;
    bool ran_ = false;
    std::atomic<bool> cancel_requested_{false};
};

} // namespace tfetsram::runner
