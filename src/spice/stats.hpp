#pragma once
// Solver instrumentation. The DC and transient engines bump these counters
// on the SimContext doing the solving (spice/context.hpp); the runner's
// telemetry layer reports each task's context totals to show how much
// Newton work a task actually cost (NR iterations per cache miss is the
// engine's primary perf-trajectory metric).
//
// The fine-grained counters (assemblies, LU factorizations, line-search
// backtracks) exist to pin the solver's perf contract: a healthy Newton
// loop performs exactly one MNA assembly per accepted iterate plus one per
// backtrack, and one LU factorization per iterate. tests/test_solver_perf
// asserts these invariants and bench/microbench.cpp publishes them as the
// BENCH_microbench.json trajectory (see docs/SOLVER.md).
//
// Each context owns a sink, and a parent aggregates its fan-out children
// with operator+=, which is how inner Monte-Carlo pool work attributes to
// the task that spawned it (see docs/ARCHITECTURE.md). solver_stats() is
// the thread-ambient view: it resolves to the context bound to this thread
// (else the per-thread default), keeping the snapshot/subtract metering
// idiom with no atomic traffic in the Newton hot loop.
//
// kSolverStatsFields below is the one list of the fields: the arithmetic,
// the journal, the BENCH artifact and RunSummary are all driven by it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>

namespace tfetsram::spice {

struct SolverStats {
    std::uint64_t nr_iterations = 0;   ///< Newton-Raphson iterations
    std::uint64_t dc_solves = 0;       ///< solve_dc calls
    std::uint64_t transient_steps = 0; ///< accepted transient time steps
    std::uint64_t transient_solves = 0; ///< solve_transient calls
    /// Accepted steps a resumed transient copied from its tape instead of
    /// integrating (spice/transient.hpp, TransientTape).
    std::uint64_t transient_steps_replayed = 0;
    std::uint64_t assemblies = 0;       ///< full MNA system assemblies
    std::uint64_t lu_factorizations = 0; ///< Jacobian factorizations (any kernel)
    std::uint64_t line_search_backtracks = 0; ///< rejected damped steps
    std::uint64_t sparse_refactorizations = 0; ///< sparse numeric refactors
    std::uint64_t sparse_symbolic_analyses = 0; ///< once per sparse circuit

    // Sparse-kernel fast-path instrumentation (docs/SOLVER.md): a refactor
    // either reuses the previous pivot sequence (a static-pivot hit) or
    // runs threshold pivoting; a factor whose element growth tripped the
    // monitor and was redone under stricter pivoting bumps the fallback
    // counter. ordering_us accumulates wall microseconds spent computing
    // fill-reducing orderings (symbolic analysis only, so ~once per
    // topology).
    std::uint64_t sparse_static_pivot_hits = 0; ///< refactors w/o pivot search
    std::uint64_t sparse_pivot_fallbacks = 0;   ///< growth-triggered retries
    std::uint64_t sparse_ordering_us = 0;       ///< time in fill ordering [us]

    /// Device I-V samples computed through the batched structure-of-arrays
    /// path (DeviceEvalBatch) rather than one-at-a-time virtual dispatch.
    std::uint64_t batched_evals = 0;

    // Cancellation/deadline instrumentation (docs/ROBUSTNESS.md): polls
    // happen at deterministic boundaries (one per Newton iteration, per
    // transient step, per solve entry, per mixed-level attempt), so for a
    // fixed workload deadline_polls is exact and rerun-stable; a solve
    // that returned kCancelled/kDeadlineExceeded bumps cancelled_solves.
    std::uint64_t deadline_polls = 0;   ///< cancellation checkpoints hit
    std::uint64_t cancelled_solves = 0; ///< solves ended by cancel/deadline

    // Mixed-level array engine (src/hier) event counters: exact and
    // deterministic for a given operation sequence — the differential
    // tests pin them, and the telemetry journal exposes them per task.
    std::uint64_t hier_promotions = 0;   ///< cells raised to SPICE level
    std::uint64_t hier_demotions = 0;    ///< cells re-latched after settling
    std::uint64_t hier_relinearizations = 0; ///< lumped-load re-extractions
    std::uint64_t hier_guard_retries = 0; ///< ops re-run after a guard trip

    // Gauges (latest observed values, not monotonic counters): the MNA
    // pattern nnz and the L+U nnz of the most recent sparse symbolic
    // analysis / refactorization in this context.
    std::uint64_t sparse_pattern_nnz = 0;
    std::uint64_t sparse_lu_nnz = 0;
    /// Gauge: unknowns of the mixed-level engine's most recent active
    /// partition (0 when the engine never ran in the metered region).
    std::uint64_t hier_active_unknowns = 0;

    /// Counter deltas for a metered region. A gauge carries its current
    /// value through when its group did work in the region, and 0
    /// otherwise (a dense-only region reports no sparse system size).
    SolverStats operator-(const SolverStats& rhs) const;

    /// Aggregate a child context's totals into a parent: counters add,
    /// gauges keep the largest observed system.
    SolverStats& operator+=(const SolverStats& rhs);
};

// ------------------------------------------------------------ the schema

enum class StatKind {
    kCounter, ///< monotonic: windows subtract, children add
    kGauge,   ///< latest observed size: children fold to the maximum
};

/// Which engine part a field reports on. The journal and BENCH artifact
/// print a group only when it did work, so dense-only and flat-only runs
/// keep their historical shape (runner/telemetry.cpp).
enum class StatGroup {
    kCore,           ///< Newton/transient/LU work: always reported
    kNonzeroOnly,    ///< reported only when the field itself is nonzero
    kSparse,         ///< sparse-kernel totals
    kSparseFastPath, ///< refactor instrumentation; active with kSparse
    kHier,           ///< mixed-level array engine
};

struct StatField {
    const char* name; ///< journal/BENCH key, same as the member's name
    std::uint64_t SolverStats::*member;
    StatKind kind;
    StatGroup group;
};

/// One descriptor per member, in journal key order.
inline constexpr StatField kSolverStatsFields[] = {
    {"nr_iterations", &SolverStats::nr_iterations, StatKind::kCounter,
     StatGroup::kCore},
    {"dc_solves", &SolverStats::dc_solves, StatKind::kCounter,
     StatGroup::kCore},
    {"transient_steps", &SolverStats::transient_steps, StatKind::kCounter,
     StatGroup::kCore},
    {"transient_solves", &SolverStats::transient_solves, StatKind::kCounter,
     StatGroup::kCore},
    {"assemblies", &SolverStats::assemblies, StatKind::kCounter,
     StatGroup::kCore},
    {"lu_factorizations", &SolverStats::lu_factorizations,
     StatKind::kCounter, StatGroup::kCore},
    {"line_search_backtracks", &SolverStats::line_search_backtracks,
     StatKind::kCounter, StatGroup::kCore},
    {"deadline_polls", &SolverStats::deadline_polls, StatKind::kCounter,
     StatGroup::kNonzeroOnly},
    {"cancelled_solves", &SolverStats::cancelled_solves, StatKind::kCounter,
     StatGroup::kNonzeroOnly},
    {"transient_steps_replayed", &SolverStats::transient_steps_replayed,
     StatKind::kCounter, StatGroup::kNonzeroOnly},
    {"sparse_refactorizations", &SolverStats::sparse_refactorizations,
     StatKind::kCounter, StatGroup::kSparse},
    {"sparse_symbolic_analyses", &SolverStats::sparse_symbolic_analyses,
     StatKind::kCounter, StatGroup::kSparse},
    {"sparse_pattern_nnz", &SolverStats::sparse_pattern_nnz,
     StatKind::kGauge, StatGroup::kSparse},
    {"sparse_lu_nnz", &SolverStats::sparse_lu_nnz, StatKind::kGauge,
     StatGroup::kSparse},
    {"sparse_static_pivot_hits", &SolverStats::sparse_static_pivot_hits,
     StatKind::kCounter, StatGroup::kSparseFastPath},
    {"sparse_pivot_fallbacks", &SolverStats::sparse_pivot_fallbacks,
     StatKind::kCounter, StatGroup::kSparseFastPath},
    {"sparse_ordering_us", &SolverStats::sparse_ordering_us,
     StatKind::kCounter, StatGroup::kSparseFastPath},
    {"batched_evals", &SolverStats::batched_evals, StatKind::kCounter,
     StatGroup::kNonzeroOnly},
    {"hier_promotions", &SolverStats::hier_promotions, StatKind::kCounter,
     StatGroup::kHier},
    {"hier_demotions", &SolverStats::hier_demotions, StatKind::kCounter,
     StatGroup::kHier},
    {"hier_relinearizations", &SolverStats::hier_relinearizations,
     StatKind::kCounter, StatGroup::kHier},
    {"hier_guard_retries", &SolverStats::hier_guard_retries,
     StatKind::kCounter, StatGroup::kHier},
    {"hier_active_unknowns", &SolverStats::hier_active_unknowns,
     StatKind::kGauge, StatGroup::kHier},
};

static_assert(sizeof(SolverStats) ==
                  std::size(kSolverStatsFields) * sizeof(std::uint64_t),
              "every SolverStats member needs a kSolverStatsFields entry");
static_assert(
    [] {
        for (std::size_t i = 0; i < std::size(kSolverStatsFields); ++i)
            for (std::size_t j = 0; j < i; ++j)
                if (kSolverStatsFields[i].member ==
                    kSolverStatsFields[j].member)
                    return false;
        return true;
    }(),
    "a SolverStats member is listed twice in kSolverStatsFields");

/// Whether `s` did work in `group`: some counter of the group is nonzero.
/// The sparse fast path counts as active with the sparse kernel it
/// instruments.
constexpr bool did_work(const SolverStats& s, StatGroup group) {
    if (group == StatGroup::kSparseFastPath)
        group = StatGroup::kSparse;
    for (const StatField& f : kSolverStatsFields)
        if (f.group == group && f.kind == StatKind::kCounter &&
            s.*f.member > 0)
            return true;
    return false;
}

inline SolverStats SolverStats::operator-(const SolverStats& rhs) const {
    SolverStats d;
    for (const StatField& f : kSolverStatsFields)
        if (f.kind == StatKind::kCounter)
            d.*f.member = this->*f.member - rhs.*f.member;
    for (const StatField& f : kSolverStatsFields)
        if (f.kind == StatKind::kGauge && did_work(d, f.group))
            d.*f.member = this->*f.member;
    return d;
}

inline SolverStats& SolverStats::operator+=(const SolverStats& rhs) {
    for (const StatField& f : kSolverStatsFields)
        this->*f.member = f.kind == StatKind::kCounter
                              ? this->*f.member + rhs.*f.member
                              : std::max(this->*f.member, rhs.*f.member);
    return *this;
}

/// The ambient context's running counters (monotonically increasing;
/// snapshot and subtract to meter a region on this thread). Equivalent to
/// ambient_context().stats().
SolverStats& solver_stats();

} // namespace tfetsram::spice
