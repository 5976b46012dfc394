#include "runner/telemetry.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "runner/json.hpp"
#include "util/fault.hpp"
#include "util/table_printer.hpp"
#include "util/units.hpp"

namespace tfetsram::runner {

namespace {

/// Render one published metric value: numeric-looking strings become JSON
/// numbers so downstream tooling can aggregate them; non-finite values
/// (a NaN point of an all-censored interval, an infinite sigma level)
/// become null rather than poisoning the artifact with invalid JSON; and
/// anything else stays a string.
Json metric_json(const std::string& value) {
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || end == nullptr || *end != '\0')
        return Json(value);
    if (!std::isfinite(parsed))
        return Json(); // null
    return Json(parsed);
}

Json metrics_json(
    const std::vector<std::pair<std::string, std::string>>& metrics) {
    Json object = Json::object();
    for (const auto& [name, value] : metrics)
        object.set(name, metric_json(value));
    return object;
}

/// Whether a sink prints solver field `f` for `s`: core fields always,
/// nonzero-only fields when nonzero, any other group when it did work, so
/// dense-only and flat-only journals keep their historical shape.
bool reported(const spice::StatField& f, const spice::SolverStats& s) {
    switch (f.group) {
    case spice::StatGroup::kCore: return true;
    case spice::StatGroup::kNonzeroOnly: return s.*f.member > 0;
    default: return spice::did_work(s, f.group);
    }
}

} // namespace

std::string to_string(TaskStatus status) {
    switch (status) {
    case TaskStatus::kExecuted: return "miss";
    case TaskStatus::kHit: return "hit";
    case TaskStatus::kPruned: return "pruned";
    case TaskStatus::kFailed: return "failed";
    case TaskStatus::kQuarantined: return "quarantined";
    case TaskStatus::kCancelled: return "cancelled";
    }
    return "?";
}

Telemetry::Telemetry(std::filesystem::path out_dir, std::string run_name,
                     bool enabled)
    : out_dir_(std::move(out_dir)), run_name_(std::move(run_name)) {
    if (!enabled)
        return;
    std::error_code ec;
    std::filesystem::create_directories(out_dir_, ec);
    journal_path_ = out_dir_ / (run_name_ + "_journal.jsonl");
    journal_.open(journal_path_, std::ios::trunc);
}

void Telemetry::record(const TaskRecord& record) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++summary_.tasks;
    switch (record.status) {
    case TaskStatus::kExecuted: ++summary_.executed; break;
    case TaskStatus::kHit: ++summary_.cache_hits; break;
    case TaskStatus::kPruned: ++summary_.pruned; break;
    case TaskStatus::kFailed: ++summary_.failed; break;
    case TaskStatus::kQuarantined: ++summary_.quarantined; break;
    case TaskStatus::kCancelled: ++summary_.cancelled; break;
    }
    summary_.solver += record.solver;

    if (!journal_.is_open())
        return;
    if (record.status == TaskStatus::kExecuted)
        task_walls_.emplace_back(record.id, record.wall_s);
    if (!record.metrics.empty())
        task_metrics_.emplace_back(record.id, record.metrics);
    Json line = Json::object();
    line.set("task", record.id);
    line.set("key", record.key_hash);
    line.set("cache", to_string(record.status));
    if (record.attempts > 1)
        line.set("attempts", static_cast<std::size_t>(record.attempts));
    if (!record.error.empty())
        line.set("error", record.error);
    if (!record.watchdog.empty())
        line.set("watchdog", record.watchdog);
    line.set("wall_s", record.wall_s);
    for (const spice::StatField& f : spice::kSolverStatsFields)
        if (reported(f, record.solver))
            line.set(f.name, record.solver.*f.member);
    // Published metrics appear only for tasks that opted in, so ordinary
    // journals keep their shape.
    if (!record.metrics.empty())
        line.set("metrics", metrics_json(record.metrics));
    journal_ << line.dump() << '\n';
    journal_.flush(); // journal survives a crashed/killed run
}

RunSummary Telemetry::finish(double total_wall_s) {
    std::lock_guard<std::mutex> lock(mutex_);
    summary_.wall_s = total_wall_s;
    if (journal_.is_open()) {
        Json bench = Json::object();
        bench.set("name", run_name_);
        bench.set("tasks", summary_.tasks);
        bench.set("executed", summary_.executed);
        bench.set("cache_hits", summary_.cache_hits);
        bench.set("pruned", summary_.pruned);
        bench.set("failed", summary_.failed);
        bench.set("quarantined", summary_.quarantined);
        bench.set("cancelled", summary_.cancelled);
        bench.set("degraded", summary_.degraded());
        bench.set("wall_s", summary_.wall_s);
        // Unlike the journal, BENCH always prints the sparse totals.
        for (const spice::StatField& f : spice::kSolverStatsFields)
            if (reported(f, summary_.solver) ||
                f.group == spice::StatGroup::kSparse)
                bench.set(f.name, summary_.solver.*f.member);
        if (!task_walls_.empty()) {
            // Per-workload walls, so CI can gate one workload (e.g. the
            // array64x64 microbench task) against a checked-in baseline
            // without parsing the journal.
            Json walls = Json::object();
            for (const auto& [id, wall_s] : task_walls_)
                walls.set(id, wall_s);
            bench.set("task_wall_s", std::move(walls));
        }
        if (!task_metrics_.empty()) {
            // Per-task published metrics (yield estimates and their
            // confidence bounds, docs/YIELD.md) — present on warm runs
            // too, since the values ride the cached TaskResult.
            Json metrics = Json::object();
            for (const auto& [id, values] : task_metrics_)
                metrics.set(id, metrics_json(values));
            bench.set("task_metrics", std::move(metrics));
        }
        const std::filesystem::path path =
            out_dir_ / ("BENCH_" + run_name_ + ".json");
        if (!atomic_write(path, bench.dump() + '\n'))
            std::fprintf(stderr, "telemetry: failed to write %s\n",
                         path.string().c_str());
    }
    return summary_;
}

bool atomic_write(const std::filesystem::path& path,
                  const std::string& content) {
    if (fault::should_fail(fault::Site::kFileWrite))
        return false;
    // Write-then-rename: a crash mid-write leaves the previous artifact
    // intact instead of a truncated file.
    static std::atomic<unsigned long> temp_serial{0};
    const std::filesystem::path tmp =
        path.string() + ".tmp" +
        std::to_string(temp_serial.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return false;
        out << content;
        out.flush();
        if (!out) {
            out.close();
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    const bool renamed = !ec;
    if (!renamed)
        std::filesystem::remove(tmp, ec);
    return renamed;
}

std::string Telemetry::render(const RunSummary& summary,
                              const std::string& run_name) {
    TablePrinter table({"run", "tasks", "executed", "hits", "pruned",
                        "failed", "quar", "nr_iters", "dc_solves", "wall"});
    table.add_row({run_name, std::to_string(summary.tasks),
                   std::to_string(summary.executed),
                   std::to_string(summary.cache_hits),
                   std::to_string(summary.pruned),
                   std::to_string(summary.failed),
                   std::to_string(summary.quarantined),
                   std::to_string(summary.solver.nr_iterations),
                   std::to_string(summary.solver.dc_solves),
                   format_si(summary.wall_s, "s")});
    std::string rendered = table.render();
    if (summary.degraded())
        rendered += "DEGRADED RUN: " + std::to_string(summary.quarantined) +
                    " quarantined / " + std::to_string(summary.failed) +
                    " failed / " + std::to_string(summary.cancelled) +
                    " cancelled task(s) — figures contain placeholder "
                    "points\n";
    return rendered;
}

} // namespace tfetsram::runner
