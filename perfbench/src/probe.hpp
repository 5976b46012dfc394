#pragma once
// Measurement plumbing of the benchmark driver. Every number is taken from
// outside the library: the driver wraps its own calls into each src/
// module in a Probe::Scope, which adds the call's host time to a per-layer
// timer ("<layer>.<call>_s", with a "<layer>.<call>_calls" count) and, on
// traced rounds, records a span (name, start, end, parent, thread). Spans
// stay in memory and are written once, at exit, as Chrome trace-event JSON.
//
// Timers, counters and op latencies are per round: take_round() hands the
// accumulated values over and starts the next round from zero. All
// accumulation is thread-safe, because Monte-Carlo callbacks and runner
// tasks report from pool threads.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "spice/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using SpanId = std::int64_t;

/// Parent marker: nest under the span currently open on this thread.
inline constexpr SpanId kInherit = -2;
/// Parent marker of a root span.
inline constexpr SpanId kNoSpan = -1;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

struct SpanRecord {
    std::string name; ///< "<layer>.<call>"; the layer is the part before '.'
    SpanId id = kNoSpan;
    SpanId parent = kNoSpan;
    std::uint32_t thread = 0;
    double start_us = 0.0; ///< since the Probe was constructed
    double end_us = 0.0;
};

/// Everything one round measured.
struct RoundMeasure {
    std::map<std::string, double> layer;  ///< timers and counts by name
    tfetsram::spice::SolverStats solver; ///< summed SimContext deltas
    std::vector<double> unit_s;          ///< host latency of each unit
    std::uint64_t attempted = 0;         ///< units attempted
    std::uint64_t failed = 0;            ///< units that failed
};

class Probe {
public:
    Probe() = default;
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;

    /// Span and timer around one call into a layer. Scopes nest on a
    /// thread; a scope opened on a pool thread names its parent explicitly.
    class Scope {
    public:
        Scope(Probe& probe, const char* name, SpanId parent = kInherit);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        [[nodiscard]] SpanId id() const { return id_; }
        [[nodiscard]] Clock::time_point start() const { return start_; }

    private:
        Probe& probe_;
        const char* name_;
        SpanId id_;
        SpanId parent_;
        SpanId previous_;
        Clock::time_point start_;
    };

    /// Spans are recorded only while tracing is on. Toggle between rounds.
    void set_tracing(bool on) { tracing_.store(on); }
    [[nodiscard]] bool tracing() const { return tracing_.load(); }

    /// Record a span whose interval the driver measured itself (e.g. the
    /// Monte-Carlo prelude, which ends at the first metric callback).
    void record_span(const char* name, SpanId parent, Clock::time_point start,
                     Clock::time_point end);

    /// Add `value` to the named per-round timer or counter.
    void add(const std::string& name, double value);
    /// Keep the largest value seen this round under `name`.
    void max(const std::string& name, double value);
    /// Add a SimContext counter delta to the round's solver totals.
    void add_solver(const tfetsram::spice::SolverStats& delta);
    /// Host latency of one unit (MC metric callback, sweep point or array
    /// op).
    void unit_latency(double seconds);
    /// Units attempted and failed. Counted apart from the latencies because
    /// a retried MC sample runs its callback more than once.
    void count_units(std::uint64_t attempted, std::uint64_t failed);

    /// Hand the round's measurements over and start the next from zero.
    RoundMeasure take_round();

    /// Write every recorded span as Chrome trace-event JSON.
    bool write_chrome_trace(const std::filesystem::path& path) const;

private:
    [[nodiscard]] double since_origin_us(Clock::time_point t) const;

    const Clock::time_point origin_ = Clock::now();
    std::atomic<bool> tracing_{false};
    std::atomic<SpanId> next_id_{0};
    std::mutex mutex_; // guards round_ and spans_
    RoundMeasure round_;
    std::vector<SpanRecord> spans_;
};

} // namespace perfbench
