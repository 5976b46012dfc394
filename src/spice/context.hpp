#pragma once
// SimContext: the explicit, immutable-after-construction simulation
// context threaded through solver → cell → array → MC → runner. It holds
// solve *policy*; the tolerance set (SolverOptions) is a separate,
// explicit argument of every solve. A context owns
//
//  * the solver-mode policy (SimConfig::mode; TFETSRAM_SOLVER reaches it
//    only through SimConfig::from_env, so concurrent dense-vs-sparse A/B
//    tasks are safe),
//  * the RNG seed root plus deterministic derived seeds for child work,
//  * an optional private fault-injection plan,
//  * the output directory, the deadline and the cancel token,
//  * a per-context SolverStats sink, so work fanned out to inner pools is
//    attributed to the context, not to whichever thread happened to run it.
//
// Contexts compose one way: child(stream) derives an independent context
// (own stats, derived seed) for fan-out work whose counters the parent
// aggregates afterwards.
//
// Threading model: a context is bound to a thread with ScopedContext;
// ambient_context() returns the innermost binding, falling back to a
// per-thread default context built once from the process env snapshot.
// Every solve binds its context for its duration, so the counters bumped
// inside assembly (solver_stats()) reach it. Library entry points that
// carry an optional context resolve it once with context_or_ambient().
// See docs/ARCHITECTURE.md.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "spice/cancel.hpp"
#include "spice/solve_error.hpp"
#include "spice/solver_select.hpp"
#include "spice/stats.hpp"
#include "util/env.hpp"

namespace tfetsram::fault {
enum class Site : std::size_t;
class FaultState;
} // namespace tfetsram::fault

namespace tfetsram::spice {

/// Everything a SimContext is built from. Plain data: fill it in (or start
/// from from_env()) and hand it to the SimContext constructor, after which
/// it never changes.
struct SimConfig {
    /// Backend policy; kAuto routes by system size (kSparseAutoThreshold).
    SolverMode mode = SolverMode::kAuto;
    /// RNG seed root; derive_seed()/child() mix per-stream seeds from it.
    std::uint64_t seed = 0x746665747372616dull; // "tfetsram"
    /// Private fault-injection plan (TFETSRAM_FAULTS grammar). Empty means
    /// the context consults the process-wide injector, preserving the
    /// ScopedFaultInjection / env-var behavior.
    std::string fault_spec;
    std::filesystem::path out_dir = "bench_csv";
    /// Attribution label (e.g. the runner task id); diagnostic only.
    std::string label;

    // --- cancellation / graceful degradation (docs/ROBUSTNESS.md) ---
    /// Wall-clock budget in seconds, armed at SimContext construction
    /// (TFETSRAM_TASK_TIMEOUT; 0 = unlimited). Children inherit
    /// the parent's absolute expiry instant, so a Monte-Carlo fan-out
    /// cannot outlive the task that spawned it. Expiry is graceful: solves
    /// return SolveErrorCode::kDeadlineExceeded with partial results.
    double deadline_s = 0.0;
    /// Deterministic budget on the context's total Newton iterations
    /// (0 = unlimited). Unlike the wall clock, this expires at exactly the
    /// same poll on every rerun — what the deadline tests pin counters on.
    std::uint64_t iteration_budget = 0;
    /// Cooperative cancel/heartbeat token. Shared (not copied) by
    /// children; null means "not cancellable" and polls cost only a
    /// counter increment. The runner installs one per task attempt so its
    /// watchdog can cancel stalled work from outside.
    std::shared_ptr<CancelToken> cancel;

    /// Defaults layered from a fresh environment snapshot.
    static SimConfig from_env();
    /// Defaults layered from `snap` (one capture shared across subsystems).
    static SimConfig from_env(const env::EnvSnapshot& snap);
};

class SimContext {
public:
    /// Explicit and not default-constructible: a context is always built
    /// from a SimConfig the caller chose (or from_env()).
    explicit SimContext(SimConfig config);
    ~SimContext();

    SimContext(const SimContext&) = delete;
    SimContext& operator=(const SimContext&) = delete;
    SimContext(SimContext&& other) noexcept;
    SimContext& operator=(SimContext&&) = delete;

    [[nodiscard]] const SimConfig& config() const { return config_; }
    [[nodiscard]] std::uint64_t seed() const { return config_.seed; }

    /// This context's counter sink, owned by the context.
    [[nodiscard]] SolverStats& stats() const { return stats_; }

    /// Resolve the linear backend for a system of `num_unknowns` under the
    /// context's mode.
    [[nodiscard]] SolverKind select_kind(std::size_t num_unknowns) const;

    /// Deterministic per-stream seed (splitmix-style mix of the root and
    /// `stream`): two contexts with equal roots derive equal seeds for
    /// equal streams, regardless of threading.
    [[nodiscard]] std::uint64_t derive_seed(std::uint64_t stream) const;

    /// Independent child for fan-out work (one per MC sample): same
    /// mode/out_dir, seed derived from `stream`, shared fault plan,
    /// and its own zeroed stats — the parent aggregates children in
    /// deterministic order once the fan-out joins (stats() += child.stats()).
    [[nodiscard]] SimContext child(std::uint64_t stream) const;

    /// Fault hook: the private plan when this context has one, else the
    /// process-wide injector.
    [[nodiscard]] bool should_fail(fault::Site site) const;

    /// Cancellation checkpoint: bumps stats().deadline_polls, ticks the
    /// token's heartbeat, and reports why the solve should stop —
    /// kCancelled (token fired), kDeadlineExceeded (wall clock or
    /// iteration budget expired), or kNone. Engines call this at every
    /// Newton iteration / transient step / MC sample / mixed-level
    /// attempt; callers unwind gracefully, preserving partial results.
    [[nodiscard]] SolveErrorCode poll_cancellation() const;

    /// Side-effect-free re-read of the current cancellation state: no
    /// counter bump, no heartbeat tick. For secondary checks (between DC
    /// fallback strategies, in retry loops) that must not perturb the
    /// deterministic deadline_polls count.
    [[nodiscard]] SolveErrorCode cancellation_status() const;

    /// The shared token (null when the context is not cancellable).
    [[nodiscard]] const std::shared_ptr<CancelToken>& cancel_token() const {
        return config_.cancel;
    }

private:
    SimConfig config_;
    mutable SolverStats stats_;
    std::shared_ptr<fault::FaultState> fault_;
    /// Absolute expiry instant, armed once at construction from
    /// config_.deadline_s; children copy the parent's instant so
    /// the whole task tree expires together.
    bool has_deadline_ = false;
    std::chrono::steady_clock::time_point deadline_at_{};
};

/// The context solver work on this thread attributes to: the innermost
/// ScopedContext binding, else a per-thread default built once from
/// env::EnvSnapshot::process().
const SimContext& ambient_context();

/// `*sim` when non-null, else ambient_context(): how an entry point with an
/// optional context (SramCell::sim, SramArray's, MixedArray's) resolves
/// the one context all of its solves run under.
inline const SimContext& context_or_ambient(const SimContext* sim) {
    return sim != nullptr ? *sim : ambient_context();
}

/// RAII thread binding. Every solve binds its context on entry so the
/// assembly counters inside the Newton loop (solver_stats()) resolve to
/// it; the runner binds each task's context around the task body.
class ScopedContext {
public:
    explicit ScopedContext(const SimContext& ctx);
    ~ScopedContext();
    ScopedContext(const ScopedContext&) = delete;
    ScopedContext& operator=(const ScopedContext&) = delete;

private:
    const SimContext* previous_;
};

} // namespace tfetsram::spice
