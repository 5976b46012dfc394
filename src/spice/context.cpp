#include "spice/context.hpp"

#include "util/fault.hpp"

namespace tfetsram::spice {

namespace {

/// SplitMix64 finalizer — the same mix the fault injector uses; one
/// application fully decorrelates child streams from the root seed.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

thread_local const SimContext* t_bound = nullptr;

} // namespace

SimConfig SimConfig::from_env() {
    return from_env(env::EnvSnapshot::capture());
}

SimConfig SimConfig::from_env(const env::EnvSnapshot& snap) {
    SimConfig cfg;
    cfg.mode = parse_solver_mode(snap.solver.c_str());
    if (snap.seed != 0)
        cfg.seed = snap.seed;
    cfg.fault_spec = snap.faults;
    if (!snap.out_dir.empty())
        cfg.out_dir = snap.out_dir;
    if (snap.task_timeout > 0)
        cfg.deadline_s = snap.task_timeout;
    return cfg;
}

SimContext::SimContext(SimConfig config) : config_(std::move(config)) {
    if (!config_.fault_spec.empty())
        fault_ = std::make_shared<fault::FaultState>(config_.fault_spec);
    if (config_.deadline_s > 0) {
        has_deadline_ = true;
        deadline_at_ = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(config_.deadline_s));
    }
}

SimContext::~SimContext() = default;

SimContext::SimContext(SimContext&&) noexcept = default;

SolverKind SimContext::select_kind(std::size_t num_unknowns) const {
    return apply_solver_mode(config_.mode, num_unknowns);
}

std::uint64_t SimContext::derive_seed(std::uint64_t stream) const {
    return mix64(config_.seed ^ mix64(stream));
}

SimContext SimContext::child(std::uint64_t stream) const {
    SimConfig cfg = config_;
    cfg.seed = derive_seed(stream);
    SimContext ctx(std::move(cfg));
    ctx.fault_ = fault_; // children share the plan (and its op counters)
    // A child inherits the parent's absolute expiry instant, not a fresh
    // window — the fan-out cannot outlive the task that spawned it. (The
    // constructor re-armed from deadline_s; overwrite with the original.)
    ctx.has_deadline_ = has_deadline_;
    ctx.deadline_at_ = deadline_at_;
    return ctx;
}

bool SimContext::should_fail(fault::Site site) const {
    if (fault_)
        return fault_->should_fail(site);
    return fault::should_fail(site);
}

SolveErrorCode SimContext::poll_cancellation() const {
    ++stats_.deadline_polls;
    if (config_.cancel) {
        if (config_.cancel->cancelled())
            return SolveErrorCode::kCancelled;
        config_.cancel->tick(); // heartbeat for the watchdog
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_at_)
        return SolveErrorCode::kDeadlineExceeded;
    if (config_.iteration_budget != 0 &&
        stats_.nr_iterations >= config_.iteration_budget)
        return SolveErrorCode::kDeadlineExceeded;
    return SolveErrorCode::kNone;
}

SolveErrorCode SimContext::cancellation_status() const {
    if (config_.cancel && config_.cancel->cancelled())
        return SolveErrorCode::kCancelled;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_at_)
        return SolveErrorCode::kDeadlineExceeded;
    if (config_.iteration_budget != 0 &&
        stats_.nr_iterations >= config_.iteration_budget)
        return SolveErrorCode::kDeadlineExceeded;
    return SolveErrorCode::kNone;
}

const SimContext& ambient_context() {
    if (t_bound != nullptr)
        return *t_bound;
    // Per-thread default: env defaults frozen at first use, own stats —
    // exactly the historical thread_local solver_stats() semantics for
    // code running outside any explicit context.
    thread_local SimContext default_ctx(
        SimConfig::from_env(env::EnvSnapshot::process()));
    return default_ctx;
}

ScopedContext::ScopedContext(const SimContext& ctx) : previous_(t_bound) {
    t_bound = &ctx;
}

ScopedContext::~ScopedContext() { t_bound = previous_; }

} // namespace tfetsram::spice
