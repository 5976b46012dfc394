#pragma once
// Run telemetry: a JSONL journal with one record per task (id, key hash,
// cache status, wall time, solver work) plus an end-of-run summary — both
// the console table and a machine-readable BENCH_<run>.json artifact so
// successive commits can be compared on cache efficiency and Newton cost.

#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "spice/stats.hpp"

namespace tfetsram::runner {

/// Crash-safe file write: content goes to a unique temp file which is
/// renamed over `path`, so readers never observe a partial artifact.
/// Returns false on I/O failure (or an injected kFileWrite fault).
bool atomic_write(const std::filesystem::path& path,
                  const std::string& content);

/// Outcome of one scheduled task.
enum class TaskStatus {
    kExecuted,    ///< cache miss (or uncacheable): fn ran
    kHit,         ///< served from the result cache
    kPruned,      ///< setup-only task skipped because no dependent executed
    kFailed,      ///< fn threw (run aborts unless keep-going)
    kQuarantined, ///< fn failed in keep-going mode, or an upstream
                  ///< dependency was quarantined; rest of the graph ran
    kCancelled,   ///< never ran: the run was cancelled (signal or
                  ///< Runner::request_cancel) while it was still queued
};
std::string to_string(TaskStatus status);

struct TaskRecord {
    std::string id;
    std::string key_hash; ///< empty for uncacheable tasks
    TaskStatus status = TaskStatus::kExecuted;
    int attempts = 1;  ///< execution attempts spent (retries included)
    std::string error; ///< structured-error rendering when failed/quarantined
    /// Why the watchdog intervened ("stall" / "timeout"), empty otherwise.
    std::string watchdog;
    double wall_s = 0.0;
    spice::SolverStats solver; ///< the task's SimContext totals
                               ///< (inner-pool work included)
    /// Scalar metrics the task published through its TaskResult's
    /// "bench:" values (see runner::bench_metrics) — journaled per task
    /// and aggregated into the BENCH artifact's "task_metrics" object, on
    /// cache hits as well as fresh executions.
    std::vector<std::pair<std::string, std::string>> metrics;
};

/// Aggregate counts returned by Runner::run and asserted on in tests.
struct RunSummary {
    std::size_t tasks = 0;
    std::size_t executed = 0;
    std::size_t cache_hits = 0;
    std::size_t pruned = 0;
    std::size_t failed = 0;
    std::size_t quarantined = 0;
    std::size_t cancelled = 0;
    double wall_s = 0.0;
    /// The tasks' solver totals: counters summed, gauges at their largest
    /// per-task value (so a dense-only run reports no sparse system size).
    spice::SolverStats solver;

    /// A degraded run completed the graph but quarantined, failed, or
    /// cancelled some tasks — its figures carry placeholder points.
    [[nodiscard]] bool degraded() const {
        return failed > 0 || quarantined > 0 || cancelled > 0;
    }
};

class Telemetry {
public:
    /// Opens `<out_dir>/<run_name>_journal.jsonl` (truncating) when
    /// enabled; a disabled or unopenable journal degrades to counting only.
    Telemetry(std::filesystem::path out_dir, std::string run_name,
              bool enabled = true);

    /// Append one task record to the journal. Thread-safe.
    void record(const TaskRecord& record);

    /// Write BENCH_<run_name>.json and return the final tallies.
    RunSummary finish(double total_wall_s);

    /// Console rendering of a summary (TablePrinter-style one-liner box).
    static std::string render(const RunSummary& summary,
                              const std::string& run_name);

    [[nodiscard]] const std::filesystem::path& journal_path() const {
        return journal_path_;
    }

private:
    std::filesystem::path out_dir_;
    std::string run_name_;
    std::filesystem::path journal_path_;
    std::ofstream journal_;
    std::mutex mutex_;
    RunSummary summary_;
    /// Wall seconds of each executed task, in completion order — emitted
    /// as the BENCH artifact's "task_wall_s" object so CI can gate a
    /// single workload's wall against a checked-in baseline.
    std::vector<std::pair<std::string, double>> task_walls_;
    /// Published task metrics in record order (hits and executions both),
    /// emitted as the BENCH artifact's "task_metrics" object.
    std::vector<
        std::pair<std::string,
                  std::vector<std::pair<std::string, std::string>>>>
        task_metrics_;
};

} // namespace tfetsram::runner
