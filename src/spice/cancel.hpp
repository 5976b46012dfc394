#pragma once
// Cooperative cancellation primitive for the solve stack. One side — the
// runner's watchdog, a signal handler, a test — requests cancellation; the
// solving side polls at deterministic boundaries (Newton iterations,
// transient steps, Monte-Carlo samples, mixed-level retry attempts) via
// SimContext::poll_cancellation(). The token doubles as the heartbeat the
// watchdog reads: every poll ticks a progress counter, so "progress
// stopped advancing" is observable from outside without touching any
// non-atomic solver state. See docs/ROBUSTNESS.md.

#include <atomic>
#include <cstdint>

namespace tfetsram::spice {

/// Shared cancel/heartbeat cell. All members are lock-free atomics:
/// cancel() is safe from any thread (and, being a plain atomic store,
/// from a signal handler); cancelled()/progress() are safe concurrent
/// reads. Sharing is by std::shared_ptr via SimConfig::cancel — a parent
/// context and its child() fan-out all see the same token, so one cancel()
/// stops the whole task tree.
class CancelToken {
public:
    /// Request cancellation. Sticky: there is no un-cancel except an
    /// explicit reset() between runner retry attempts.
    void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

    [[nodiscard]] bool cancelled() const noexcept {
        return cancelled_.load(std::memory_order_acquire);
    }

    /// Clear a previous cancel() so the owner can retry the work under the
    /// same token (the runner resets between attempts; the watchdog
    /// re-registers the attempt with a fresh heartbeat baseline).
    void reset() noexcept { cancelled_.store(false, std::memory_order_release); }

    /// Heartbeat tick; called from every SimContext::poll_cancellation().
    void tick() noexcept { progress_.fetch_add(1, std::memory_order_relaxed); }

    /// Monotonic progress counter: a watchdog that sees the same value
    /// across its stall window concludes the solve stopped polling —
    /// i.e. it is stuck inside non-cooperative work — and cancels it.
    [[nodiscard]] std::uint64_t progress() const noexcept {
        return progress_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<bool> cancelled_{false};
    std::atomic<std::uint64_t> progress_{0};
};

} // namespace tfetsram::spice
