#pragma once
// Adaptive transient analysis. Starts from the t=0 operating point, steps
// with trapezoidal integration (backward Euler on the first step and after
// waveform breakpoints), controls the step with a predictor-based local
// truncation error estimate, and lands exactly on source breakpoints.
// A TransientTape records a run so that a later run of the same circuit
// whose waveforms differ only from some time b on can resume from the
// recorded steps before b (docs/SOLVER.md, "Transient tapes").

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/solve_error.hpp"
#include "spice/solver_options.hpp"

namespace tfetsram::spice {

/// Optional early-exit predicate evaluated on each accepted step.
using StopCondition = std::function<bool(double t, const la::Vector& x)>;

/// Recorded trajectory of a transient run.
class TransientResult {
public:
    bool completed = false;     ///< reached t_end or the stop condition
    bool stopped_early = false; ///< the stop condition fired before t_end
    std::string message;        ///< failure diagnostics when !completed
    double time_reached = 0.0;  ///< last accepted time, even on failure —
                                ///< distinguishes "failed at t=0" from
                                ///< "failed at 99% of t_end"
    std::optional<SolveError> error; ///< structured cause when !completed

    /// True when at least one operating point was accepted, i.e.
    /// last_state() is callable. False only when the t=0 solve failed.
    [[nodiscard]] bool has_state() const { return !states_.empty(); }

    /// Last accepted state — on failure, the last good solution before
    /// the solver gave up.
    [[nodiscard]] const la::Vector& last_state() const;

    [[nodiscard]] std::size_t size() const { return time_.size(); }
    [[nodiscard]] const std::vector<double>& times() const { return time_; }
    [[nodiscard]] const la::Vector& state(std::size_t i) const;
    [[nodiscard]] double end_time() const;

    /// Voltage of `node` at sample index i.
    [[nodiscard]] double voltage(NodeId node, std::size_t i) const;

    /// Linearly interpolated voltage of `node` at time t (clamped to the
    /// recorded range).
    [[nodiscard]] double voltage_at(NodeId node, double t) const;

    /// Voltage at the final recorded point.
    [[nodiscard]] double final_voltage(NodeId node) const;

    /// Minimum of v(a) - v(b) over times in [t_from, t_to]. NaN when the
    /// window contains no trace data (empty trace, inverted window, or a
    /// window disjoint from [front, back]) — callers must treat NaN as
    /// "no measurement", not as a margin.
    [[nodiscard]] double min_difference(NodeId a, NodeId b, double t_from,
                                        double t_to) const;

    /// Earliest recorded time >= t_from at which v(a) - v(b) crosses below
    /// `threshold` (linear interpolation between samples); NaN if never.
    [[nodiscard]] double first_crossing_below(NodeId a, NodeId b,
                                              double threshold,
                                              double t_from) const;

    void append(double t, la::Vector x);

private:
    friend class TransientRun;

    std::vector<double> time_;
    std::vector<la::Vector> states_;
};

/// The recorded stepper history of one transient run (docs/SOLVER.md,
/// "Transient tapes").
///
/// Handed to solve_transient empty, a tape records the run: its
/// trajectory, the source and switch-control waveforms it followed, and
/// after every accepted step the stepper state (t, the next proposed dt,
/// x, x_prev, dt_prev, the history and backward-Euler flags), every
/// device's companion state (Device::save_state), and the running maximum
/// of the steps' first proposed end times.
///
/// Handed to solve_transient filled, the tape resumes the run instead of
/// starting it over. Only the waveforms and t_end may differ from the
/// recording; b is the earliest time they drive the stepper differently.
/// The run restarts from the last recorded step whose proposals all ended
/// before b, skips the t = 0 operating point, and its result is bitwise
/// the full run's. A different circuit, topology, options or dc_guess
/// resumes nothing; a device moved to another model or value between the
/// runs is not detected, so the caller must not do that. A filled tape is
/// never modified.
class TransientTape {
public:
    /// No run recorded yet (or the recording run's t = 0 solve failed).
    [[nodiscard]] bool empty() const { return steps_.empty(); }

    /// Recorded accepted steps, the t = 0 operating point included.
    [[nodiscard]] std::size_t size() const { return steps_.size(); }

    /// The recorded run's trajectory; sample k is recorded step k.
    [[nodiscard]] const TransientResult& trajectory() const {
        return trajectory_;
    }

    /// Running maximum, over steps 1..k, of the end time each step first
    /// proposed (after breakpoint clipping, before any LTE or Newton
    /// shrink); 0 for k = 0.
    [[nodiscard]] double proposal_end(std::size_t k) const;

private:
    friend class TransientRun;

    struct Step {
        double dt;             ///< next proposed step, before clipping
        double dt_prev;        ///< last accepted step
        double proposal_end;   ///< see proposal_end()
        std::size_t iteration; ///< stepper loop count at the next step
        bool history_valid;    ///< the LTE predictor can be formed
        bool force_be;         ///< the next step is backward Euler
    };

    static constexpr std::size_t kNoResume = static_cast<std::size_t>(-1);

    /// Index of the step a run with these inputs resumes from, or
    /// kNoResume.
    [[nodiscard]] std::size_t resume_point(const Circuit& circuit,
                                           const SolverOptions& opts,
                                           double t_end,
                                           const la::Vector* dc_guess) const;

    // What the recording ran with.
    const Circuit* circuit_ = nullptr;
    std::uint64_t topology_revision_ = 0;
    SolverOptions options_;
    double t_end_ = 0.0;
    std::optional<la::Vector> dc_guess_;
    std::vector<std::optional<Waveform>> stimuli_; ///< per device

    std::vector<Step> steps_;
    std::vector<double> device_states_; ///< size() blocks of stride_
    std::size_t stride_ = 0;
    TransientResult trajectory_;
};

/// Run a transient to t_end with tolerances and step bounds `opts`, under
/// `ctx` (backend policy, stats, faults, deadline; bound as this thread's
/// ambient context for the duration). The
/// circuit's sources define the stimulus. `stop` (optional) ends the run
/// early when it returns true. `dc_guess` (optional) seeds the t=0
/// operating point — essential for bistable circuits, where it selects
/// which stable state the cell starts in. `tape` (optional) records the
/// run when empty and resumes it when filled (see TransientTape).
TransientResult solve_transient(Circuit& circuit, const SimContext& ctx,
                                const SolverOptions& opts, double t_end,
                                const StopCondition& stop = nullptr,
                                const la::Vector* dc_guess = nullptr,
                                TransientTape* tape = nullptr);

} // namespace tfetsram::spice
