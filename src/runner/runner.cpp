#include "runner/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "runner/signal.hpp"
#include "spice/cancel.hpp"
#include "util/contracts.hpp"
#include "util/env.hpp"

namespace tfetsram::runner {

namespace {

/// SplitMix64 finalizer (same mix as SimContext::derive_seed) — turns
/// (seed, attempt) into the backoff jitter draw.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

double retry_backoff_s(int attempt, std::uint64_t seed, double base_s,
                       double max_s) {
    if (attempt <= 1 || base_s <= 0.0)
        return 0.0;
    double delay = base_s * std::ldexp(1.0, attempt - 2); // base * 2^(a-2)
    const std::uint64_t h =
        mix64(seed ^ mix64(static_cast<std::uint64_t>(attempt)));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53; // [0, 1)
    delay *= 0.5 + 0.5 * u;
    if (max_s > 0.0 && delay > max_s)
        delay = max_s;
    return delay;
}

RunnerConfig RunnerConfig::from_env(std::string run_name) {
    // One capture so every knob — runner scheduling and simulation
    // defaults alike — comes from the same consistent env snapshot.
    const env::EnvSnapshot snap = env::EnvSnapshot::capture();
    RunnerConfig cfg;
    cfg.run_name = std::move(run_name);
    cfg.cache_mode = parse_cache_mode(snap.cache);
    cfg.threads = snap.threads;
    if (snap.retries > 0)
        cfg.default_max_attempts = snap.retries;
    cfg.keep_going = snap.keep_going;
    cfg.task_timeout_s = snap.task_timeout;
    cfg.stall_timeout_s = snap.stall_timeout;
    if (snap.backoff_base > 0)
        cfg.backoff_base_s = snap.backoff_base;
    if (snap.backoff_max > 0)
        cfg.backoff_max_s = snap.backoff_max;
    // The same snapshot arms the cooperative per-task deadline
    // (sim.deadline_s) that the watchdog's wall-clock cancel backstops.
    cfg.sim = spice::SimConfig::from_env(snap);
    // TFETSRAM_FAULTS keeps its historical process-wide site counting: a
    // private per-task plan would restart the indices at every task, so
    // "dc@50" would mean the 50th solve of *each* task instead of the
    // run. Task contexts with an empty spec defer to the global injector;
    // a task wanting a private plan sets TaskSpec::sim.fault_spec.
    cfg.sim.fault_spec.clear();
    if (!snap.cache_dir.empty())
        cfg.cache_dir = snap.cache_dir;
    if (!snap.out_dir.empty())
        cfg.out_dir = snap.out_dir;
    // The context mirrors the runner's output directory so task code
    // resolving paths through its SimContext agrees with the telemetry.
    cfg.sim.out_dir = cfg.out_dir;
    return cfg;
}

Runner::Runner(RunnerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_dir, config_.cache_mode),
      telemetry_(config_.out_dir, config_.run_name, config_.telemetry) {}

TaskId Runner::add(TaskSpec spec) {
    TFET_EXPECTS(!ran_);
    TFET_EXPECTS(spec.fn != nullptr);
    const TaskId id = nodes_.size();
    for (TaskId dep : spec.deps) {
        // Deps must precede their dependents, so the graph is a DAG by
        // construction — no cycle detection pass needed at run time.
        TFET_EXPECTS(dep < id);
        nodes_[dep].dependents.push_back(id);
    }
    Node node;
    node.spec = std::move(spec);
    nodes_.push_back(std::move(node));
    return id;
}

const TaskResult& Runner::result(TaskId id) const {
    TFET_EXPECTS(ran_);
    TFET_EXPECTS(id < nodes_.size());
    return nodes_[id].result;
}

TaskStatus Runner::status(TaskId id) const {
    TFET_EXPECTS(ran_);
    TFET_EXPECTS(id < nodes_.size());
    return nodes_[id].status;
}

const TaskError* Runner::error(TaskId id) const {
    TFET_EXPECTS(ran_);
    TFET_EXPECTS(id < nodes_.size());
    return nodes_[id].error.get();
}

RunSummary Runner::run() {
    TFET_EXPECTS(!ran_);
    ran_ = true;
    using clock = std::chrono::steady_clock;
    const auto run_start = clock::now();
    auto seconds_since = [](clock::time_point t0) {
        return std::chrono::duration<double>(clock::now() - t0).count();
    };

    // Phase 1 — cache resolution (serial; entries are tiny JSON files).
    // Hits are done before any thread spins up, so a fully warm graph costs
    // a directory scan and nothing else.
    for (Node& node : nodes_) {
        if (node.spec.key.empty())
            continue;
        if (std::optional<TaskResult> hit = cache_.load(node.spec.key)) {
            node.result = std::move(*hit);
            node.status = TaskStatus::kHit;
            node.done = true;
        }
    }

    // Phase 2 — prune setup-only tasks whose dependents are all satisfied
    // (reverse pass so chained setup tasks collapse together).
    for (std::size_t i = nodes_.size(); i-- > 0;) {
        Node& node = nodes_[i];
        if (node.done || !node.spec.setup_only)
            continue;
        // A setup task nothing depends on was presumably added for its
        // side effect; only prune when dependents exist and are all served.
        bool needed = node.dependents.empty();
        for (TaskId dep_id : node.dependents)
            if (!nodes_[dep_id].done)
                needed = true;
        if (!needed) {
            node.status = TaskStatus::kPruned;
            node.done = true;
        }
    }

    // Record resolved tasks up front (deterministic journal prefix).
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        Node& node = nodes_[i];
        if (!node.done)
            continue;
        TaskRecord record;
        record.id = node.spec.id;
        record.key_hash = node.spec.key.empty() ? "" : node.spec.key.hash();
        record.status = node.status;
        // Cache hits re-publish the metrics stored in their TaskResult, so
        // a warm run's journal and BENCH artifact carry the same yield
        // numbers as the cold run that computed them.
        if (node.status == TaskStatus::kHit)
            record.metrics = bench_metrics(node.result);
        telemetry_.record(record);
    }

    // Phase 3 — Kahn-style execution of the remainder over the pool.
    std::mutex mutex; // guards nodes_ scheduling state + ready queue
    std::deque<TaskId> ready;
    std::size_t pending = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        Node& node = nodes_[i];
        if (node.done)
            continue;
        ++pending;
        node.waiting = 0;
        for (TaskId dep : node.spec.deps)
            if (!nodes_[dep].done)
                ++node.waiting;
        if (node.waiting == 0)
            ready.push_back(i);
    }

    if (pending > 0) {
        ThreadPool pool(config_.threads);
        std::condition_variable all_done;
        std::exception_ptr first_error;
        // Bounded-queue backpressure: at most max_in_flight tasks handed
        // to the pool at once; the rest of the ready frontier waits in
        // `ready` and is pumped in as slots free up.
        std::size_t submitted = 0; // handed to the pool, not yet finished
        const std::size_t max_in_flight = config_.max_in_flight > 0
                                              ? config_.max_in_flight
                                              : 2 * pool.size();

        // Watchdog registry: one slot per task, written by the worker
        // around each attempt, scanned by the monitor thread. The monitor
        // reads ONLY the token's lock-free atomics (heartbeat progress,
        // cancelled flag) — never a task's non-atomic SolverStats — so the
        // TSan lane stays clean.
        struct Attempt {
            std::shared_ptr<spice::CancelToken> token;
            clock::time_point start{};
            std::uint64_t last_progress = 0;
            clock::time_point last_change{};
            const char* reason = nullptr; ///< "timeout"|"stall"|"shutdown"
            bool active = false;
        };
        std::mutex wd_mutex; // guards the registry (worker <-> monitor)
        std::vector<Attempt> watchdog(nodes_.size());

        std::atomic<bool> monitor_stop{false};
        std::thread monitor([&] {
            // ~2ms cadence: responsive for sub-second stall windows, idle
            // otherwise. Also the run's shutdown observer: once a cancel
            // or signal arrives it keeps cancelling every active token
            // each tick, so an attempt that registers after a sweep is
            // still stopped.
            while (!monitor_stop.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                const bool cancelling =
                    cancel_requested_.load(std::memory_order_acquire) ||
                    shutdown_requested();
                const auto now = clock::now();
                std::lock_guard<std::mutex> lock(wd_mutex);
                for (Attempt& a : watchdog) {
                    if (!a.active || a.token == nullptr)
                        continue;
                    if (cancelling) {
                        if (a.reason == nullptr)
                            a.reason = "shutdown";
                        a.token->cancel();
                        continue;
                    }
                    const std::uint64_t beat = a.token->progress();
                    if (beat != a.last_progress) {
                        a.last_progress = beat;
                        a.last_change = now;
                    }
                    const double since_start =
                        std::chrono::duration<double>(now - a.start).count();
                    const double since_beat =
                        std::chrono::duration<double>(now - a.last_change)
                            .count();
                    if (config_.task_timeout_s > 0 &&
                        since_start > config_.task_timeout_s) {
                        a.reason = "timeout";
                        a.token->cancel();
                    } else if (config_.stall_timeout_s > 0 &&
                               since_beat > config_.stall_timeout_s) {
                        a.reason = "stall";
                        a.token->cancel();
                    }
                }
            }
        });

        std::function<void(TaskId)> execute;

        // Both called with `mutex` held / released respectively.
        auto pump_locked = [&]() {
            std::vector<TaskId> batch;
            while (!ready.empty() && submitted < max_in_flight) {
                batch.push_back(ready.front());
                ready.pop_front();
                ++submitted;
            }
            return batch;
        };
        auto submit_batch = [&](const std::vector<TaskId>& batch) {
            for (TaskId id : batch)
                pool.submit([&execute, id] { execute(id); },
                            nodes_[id].spec.id);
        };

        // Executes one task on a pool thread, then releases its dependents.
        execute = [&](TaskId id) {
            Node& node = nodes_[id];
            TaskRecord record;
            record.id = node.spec.id;
            record.key_hash =
                node.spec.key.empty() ? "" : node.spec.key.hash();

            bool poisoned = false;
            std::string poison_source;
            {
                std::lock_guard<std::mutex> lock(mutex);
                poisoned = node.poisoned;
                poison_source = node.poison_source;
            }
            const bool draining =
                cancel_requested_.load(std::memory_order_acquire) ||
                shutdown_requested();

            TaskResult result;
            std::shared_ptr<TaskError> error;
            std::exception_ptr raw_error; // original, rethrown in abort mode
            if (draining) {
                // Drain-and-cancel shutdown: the run is stopping, so this
                // task is journaled as cancelled without ever starting.
                record.status = TaskStatus::kCancelled;
                record.attempts = 0;
            } else if (poisoned) {
                // An upstream task was quarantined: this task's inputs do
                // not exist, so it is quarantined without running.
                record.status = TaskStatus::kQuarantined;
                record.attempts = 0;
                error = std::make_shared<TaskError>(
                    node.spec.id, 0,
                    "upstream dependency '" + poison_source +
                        "' quarantined");
                record.error = error->what();
            } else {
                const int max_attempts =
                    node.spec.max_attempts > 0
                        ? node.spec.max_attempts
                        : std::max(1, config_.default_max_attempts);
                // Each task runs under its own SimContext (its spec's
                // override or the runner-wide template), bound as this
                // thread's ambient context. A fresh context starts at zero,
                // so its counters ARE the task's solver work — including
                // solves the task fans out to an inner Monte-Carlo pool,
                // which aggregate into their parent context. One context —
                // and one cancel token — spans every attempt, so a private
                // fault plan's op counters keep counting across retries.
                spice::SimConfig sim_cfg =
                    node.spec.sim ? *node.spec.sim : config_.sim;
                if (sim_cfg.label.empty())
                    sim_cfg.label = node.spec.id;
                // Every task context is cancellable: the watchdog needs a
                // token to observe (heartbeat) and to fire (cancel).
                if (sim_cfg.cancel == nullptr)
                    sim_cfg.cancel = std::make_shared<spice::CancelToken>();
                const spice::SimContext ctx(std::move(sim_cfg));
                const spice::ScopedContext bind(ctx);
                const std::shared_ptr<spice::CancelToken> token =
                    ctx.cancel_token();
                const auto t0 = clock::now();
                int attempt = 1;
                for (;; ++attempt) {
                    if (attempt > 1) {
                        // Un-cancel (a watchdog cancel must not doom the
                        // retry) and back off — exponential with
                        // deterministic per-task jitter, interruptible by
                        // cancellation.
                        token->reset();
                        const double delay = retry_backoff_s(
                            attempt, ctx.seed(), config_.backoff_base_s,
                            config_.backoff_max_s);
                        const auto wake =
                            clock::now() +
                            std::chrono::duration_cast<clock::duration>(
                                std::chrono::duration<double>(delay));
                        while (clock::now() < wake) {
                            if (token->cancelled() ||
                                cancel_requested_.load(
                                    std::memory_order_acquire) ||
                                shutdown_requested())
                                break;
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(500));
                        }
                        if (node.spec.on_retry)
                            node.spec.on_retry(attempt);
                    }
                    {
                        // Register this attempt with a fresh heartbeat
                        // baseline.
                        std::lock_guard<std::mutex> lock(wd_mutex);
                        Attempt& a = watchdog[id];
                        a.token = token;
                        a.start = clock::now();
                        a.last_progress = token->progress();
                        a.last_change = a.start;
                        a.active = true;
                    }
                    try {
                        result = node.spec.fn();
                        error.reset();
                        raw_error = nullptr;
                    } catch (const spice::SolveException& e) {
                        error = std::make_shared<TaskError>(
                            node.spec.id, attempt, e.what(), e.error());
                        raw_error = std::current_exception();
                    } catch (const std::exception& e) {
                        error = std::make_shared<TaskError>(node.spec.id,
                                                            attempt, e.what());
                        raw_error = std::current_exception();
                    } catch (...) {
                        error = std::make_shared<TaskError>(
                            node.spec.id, attempt, "unknown exception");
                        raw_error = std::current_exception();
                    }
                    {
                        std::lock_guard<std::mutex> lock(wd_mutex);
                        watchdog[id].active = false;
                        if (watchdog[id].reason != nullptr)
                            record.watchdog = watchdog[id].reason;
                    }
                    if (!error || attempt >= max_attempts)
                        break;
                    // A run shutting down must not burn retries on work
                    // that the monitor will cancel again anyway.
                    if (cancel_requested_.load(std::memory_order_acquire) ||
                        shutdown_requested())
                        break;
                }
                record.attempts = std::min(attempt, max_attempts);
                record.wall_s = seconds_since(t0);
                record.solver = ctx.stats();
                const bool cancelling =
                    cancel_requested_.load(std::memory_order_acquire) ||
                    shutdown_requested();
                if (!error) {
                    record.status = TaskStatus::kExecuted;
                    record.metrics = bench_metrics(result);
                    if (!node.spec.key.empty())
                        cache_.store(node.spec.key, result);
                } else if (cancelling) {
                    // Shutdown took this attempt down mid-flight:
                    // cancelled, not failed — run() drains and returns a
                    // degraded summary instead of throwing.
                    record.status = TaskStatus::kCancelled;
                    record.error = error->what();
                } else {
                    record.status = config_.keep_going
                                        ? TaskStatus::kQuarantined
                                        : TaskStatus::kFailed;
                    record.error = error->what();
                }
            }
            telemetry_.record(record);

            const bool quarantined =
                record.status == TaskStatus::kQuarantined;
            const bool cancelled = record.status == TaskStatus::kCancelled;
            std::vector<TaskId> batch;
            {
                std::lock_guard<std::mutex> lock(mutex);
                node.result = std::move(result);
                node.status = record.status;
                node.error = error;
                node.done = true;
                --pending;
                --submitted;
                if (error && !quarantined && !cancelled && !first_error)
                    first_error = raw_error;
                if (!first_error) {
                    for (TaskId dep_id : node.dependents) {
                        Node& dependent = nodes_[dep_id];
                        if (quarantined && !dependent.poisoned) {
                            dependent.poisoned = true;
                            // Name the quarantine root, not the nearest
                            // poisoned ancestor.
                            dependent.poison_source =
                                poisoned ? poison_source : node.spec.id;
                        }
                        // Dependents of a cancelled task still release:
                        // they drain through execute() and are journaled
                        // as cancelled themselves (cancel is sticky).
                        if (!dependent.done && --dependent.waiting == 0)
                            ready.push_back(dep_id);
                    }
                    batch = pump_locked();
                }
                if (pending == 0 || first_error)
                    all_done.notify_all();
            }
            submit_batch(batch);
        };

        {
            std::vector<TaskId> batch;
            {
                std::lock_guard<std::mutex> lock(mutex);
                batch = pump_locked();
            }
            submit_batch(batch);
        }
        {
            std::unique_lock<std::mutex> lock(mutex);
            all_done.wait(lock, [&] {
                return pending == 0 || first_error != nullptr;
            });
        }
        pool.wait_idle(); // quiesce in-flight tasks before leaving scope
        monitor_stop.store(true, std::memory_order_release);
        monitor.join();

        if (first_error) {
            telemetry_.finish(seconds_since(run_start));
            std::rethrow_exception(first_error);
        }

        // A dependency graph built through add() cannot deadlock, but keep
        // the invariant checkable.
        TFET_ENSURES(pending == 0);
    }

    const RunSummary summary = telemetry_.finish(seconds_since(run_start));
    if (config_.print_summary)
        std::cout << Telemetry::render(summary, config_.run_name);
    return summary;
}

} // namespace tfetsram::runner
