#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/stats.hpp"

namespace tfetsram::spice {

// ---------------------------------------------------------- TransientResult

const la::Vector& TransientResult::state(std::size_t i) const {
    TFET_EXPECTS(i < states_.size());
    return states_[i];
}

double TransientResult::end_time() const {
    TFET_EXPECTS(!time_.empty());
    return time_.back();
}

const la::Vector& TransientResult::last_state() const {
    TFET_EXPECTS(!states_.empty());
    return states_.back();
}

void TransientResult::append(double t, la::Vector x) {
    TFET_EXPECTS(time_.empty() || t >= time_.back());
    time_.push_back(t);
    states_.push_back(std::move(x));
}

double TransientResult::voltage(NodeId node, std::size_t i) const {
    return node_voltage(state(i), node);
}

double TransientResult::voltage_at(NodeId node, double t) const {
    TFET_EXPECTS(!time_.empty());
    if (t <= time_.front())
        return node_voltage(states_.front(), node);
    if (t >= time_.back())
        return node_voltage(states_.back(), node);
    const auto it = std::upper_bound(time_.begin(), time_.end(), t);
    const std::size_t hi = static_cast<std::size_t>(it - time_.begin());
    const std::size_t lo = hi - 1;
    const double span = time_[hi] - time_[lo];
    const double frac = span > 0.0 ? (t - time_[lo]) / span : 0.0;
    const double v_lo = node_voltage(states_[lo], node);
    const double v_hi = node_voltage(states_[hi], node);
    return v_lo + frac * (v_hi - v_lo);
}

double TransientResult::final_voltage(NodeId node) const {
    TFET_EXPECTS(!states_.empty());
    return node_voltage(states_.back(), node);
}

double TransientResult::min_difference(NodeId a, NodeId b, double t_from,
                                       double t_to) const {
    // A window that misses the trace entirely has no samples to take a
    // minimum over: report NaN ("no data") rather than the +infinity the
    // empty min would produce, which downstream margin metrics would read
    // as an infinitely comfortable margin.
    if (time_.empty() || t_to < t_from || t_to < time_.front() ||
        t_from > time_.back())
        return std::numeric_limits<double>::quiet_NaN();
    double m = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < time_.size(); ++i) {
        if (time_[i] < t_from || time_[i] > t_to)
            continue;
        m = std::min(m, node_voltage(states_[i], a) -
                            node_voltage(states_[i], b));
    }
    // Include the exact window edges via interpolation so narrow windows
    // between samples still produce a value.
    m = std::min(m, voltage_at(a, t_from) - voltage_at(b, t_from));
    m = std::min(m, voltage_at(a, t_to) - voltage_at(b, t_to));
    return m;
}

double TransientResult::first_crossing_below(NodeId a, NodeId b,
                                             double threshold,
                                             double t_from) const {
    double prev_d = std::numeric_limits<double>::quiet_NaN();
    double prev_t = 0.0;
    for (std::size_t i = 0; i < time_.size(); ++i) {
        if (time_[i] < t_from)
            continue;
        const double d =
            node_voltage(states_[i], a) - node_voltage(states_[i], b);
        if (!std::isnan(prev_d) && prev_d > threshold && d <= threshold) {
            const double frac = (prev_d - threshold) / (prev_d - d);
            return prev_t + frac * (time_[i] - prev_t);
        }
        if (std::isnan(prev_d) && d <= threshold)
            return time_[i];
        prev_d = d;
        prev_t = time_[i];
    }
    return std::numeric_limits<double>::quiet_NaN();
}

// ------------------------------------------------------- stepper helpers

namespace {

/// Comparison tolerance for landing on / consuming breakpoints and for
/// end-of-window detection at time t. The absolute floor (1e-21 s) covers
/// t near zero; beyond ~1 ms that floor is smaller than one ulp of t, so
/// exact-landing tests would never fire — a few ulps of t take over there.
double time_tol(double t) {
    return std::max(1e-21, 8.0 * std::numeric_limits<double>::epsilon() * t);
}

/// Max over node unknowns of |err| / (abstol + reltol*|x|).
double lte_ratio(const la::Vector& x, const la::Vector& x_pred,
                 std::size_t n_node_unknowns, const SolverOptions& opts) {
    double worst = 0.0;
    for (std::size_t i = 0; i < n_node_unknowns; ++i) {
        const double tol =
            opts.lte_abstol + opts.lte_reltol * std::fabs(x[i]);
        worst = std::max(worst, std::fabs(x[i] - x_pred[i]) / tol);
    }
    return worst;
}

} // namespace

// ---------------------------------------------------------- TransientTape

double TransientTape::proposal_end(std::size_t k) const {
    TFET_EXPECTS(k < steps_.size());
    return steps_[k].proposal_end;
}

std::size_t TransientTape::resume_point(const Circuit& circuit,
                                        const SolverOptions& opts,
                                        double t_end,
                                        const la::Vector* dc_guess) const {
    const auto& devices = circuit.devices();
    const bool same_guess =
        dc_guess == nullptr
            ? !dc_guess_.has_value()
            : dc_guess_.has_value() && dc_guess_->size() == dc_guess->size() &&
                  std::memcmp(dc_guess->data(), dc_guess_->data(),
                              dc_guess->size() * sizeof(double)) == 0;
    if (steps_.empty() || circuit_ != &circuit ||
        topology_revision_ != circuit.topology_revision() ||
        !(options_ == opts) || !same_guess ||
        devices.size() != stimuli_.size())
        return kNoResume;

    // b: the earliest time at which the two runs' stimuli differ. t_end is
    // a breakpoint of the run, so a different t_end diverges there.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double b = t_end == t_end_ ? kInf : std::min(t_end, t_end_);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const Waveform* now = devices[i]->stimulus();
        if ((now != nullptr) != stimuli_[i].has_value())
            return kNoResume;
        if (now != nullptr)
            b = std::min(b, stimuli_[i]->shared_until(*now));
    }

    // Every Newton solve of a step happens at or before that step's first
    // proposed end time, so a step whose proposals (and its predecessors')
    // all ended before b saw only shared stimulus: it is bitwise the new
    // run's step. proposal_end is nondecreasing.
    const double limit = b == kInf ? kInf : b - time_tol(b);
    const auto valid = std::partition_point(
        steps_.begin(), steps_.end(),
        [limit](const Step& s) { return s.proposal_end < limit; });
    if (valid == steps_.begin())
        return kNoResume;
    return static_cast<std::size_t>(valid - steps_.begin()) - 1;
}

// ----------------------------------------------------------- transient run

/// One solve_transient call: the stepper state, how the run starts (the
/// t = 0 operating point or a tape's recorded step), and the stepping loop.
class TransientRun {
public:
    TransientRun(Circuit& circuit, const SimContext& ctx,
                 const SolverOptions& opts, double t_end,
                 const StopCondition& stop, const la::Vector* dc_guess,
                 TransientTape* tape)
        : circuit_(circuit), ctx_(ctx), opts_(opts), t_end_(t_end),
          stop_(stop), dc_guess_(dc_guess),
          record_(tape != nullptr && tape->empty() ? tape : nullptr),
          resume_(tape != nullptr && !tape->empty() ? tape : nullptr) {}

    TransientResult run() {
        ++ctx_.stats().transient_solves;
        if (!resume() && !start_at_operating_point())
            return std::move(result_);
        if (!result_.completed)
            step_to_end();
        if (record_ != nullptr)
            record_->trajectory_ = result_;
        return std::move(result_);
    }

private:
    /// Solve the t = 0 operating point and start stepping from it. False
    /// (with the failure in result_) when it does not converge.
    bool start_at_operating_point() {
        DcResult dc = solve_dc(circuit_, ctx_, opts_, 0.0, dc_guess_);
        if (!dc.converged) {
            result_.message = "transient: t=0 operating point did not converge";
            result_.time_reached = 0.0;
            if (dc.error.has_value()) {
                result_.error = std::move(dc.error);
            } else {
                SolveError err;
                err.code = SolveErrorCode::kNonConvergence;
                err.message = result_.message;
                result_.error = std::move(err);
            }
            record_ = nullptr; // nothing to record: the tape stays empty
            return false;
        }
        for (const auto& dev : circuit_.devices())
            dev->begin_transient(dc.x);
        result_.append(0.0, dc.x);
        dt_ = opts_.dt_initial;
        x_ = dc.x;
        x_prev_ = std::move(dc.x);
        if (record_ != nullptr) {
            TransientTape& tape = *record_;
            tape.circuit_ = &circuit_;
            tape.topology_revision_ = circuit_.topology_revision();
            tape.options_ = opts_;
            tape.t_end_ = t_end_;
            if (dc_guess_ != nullptr)
                tape.dc_guess_ = *dc_guess_;
            for (const auto& dev : circuit_.devices()) {
                const Waveform* w = dev->stimulus();
                tape.stimuli_.push_back(w != nullptr
                                            ? std::optional<Waveform>(*w)
                                            : std::nullopt);
            }
            record_step(0);
            tape.stride_ = tape.device_states_.size();
        }
        return true;
    }

    /// Continue from the resume tape's latest step valid for this run:
    /// copy the recorded prefix, replay `stop` over it, and restore the
    /// stepper and device state. False when the tape resumes nothing.
    bool resume() {
        if (resume_ == nullptr)
            return false;
        const TransientTape& tape = *resume_;
        const std::size_t k =
            tape.resume_point(circuit_, opts_, t_end_, dc_guess_);
        if (k == TransientTape::kNoResume)
            return false;
        const TransientResult& rec = tape.trajectory_;
        // A full run evaluates `stop` after each accepted step, so an
        // early stop inside the prefix ends the run there.
        std::size_t last = k;
        if (stop_) {
            for (std::size_t j = 1; j <= k; ++j) {
                if (stop_(rec.time_[j], rec.states_[j])) {
                    last = j;
                    result_.completed = true;
                    result_.stopped_early = true;
                    break;
                }
            }
        }
        const auto n = static_cast<std::ptrdiff_t>(last + 1);
        result_.time_.assign(rec.time_.begin(), rec.time_.begin() + n);
        result_.states_.assign(rec.states_.begin(), rec.states_.begin() + n);
        result_.time_reached = rec.time_[last];
        ctx_.stats().transient_steps_replayed += last;
        if (result_.completed)
            return true;

        const TransientTape::Step& s = tape.steps_[k];
        t_ = rec.time_[k];
        x_ = rec.states_[k];
        x_prev_ = rec.states_[k == 0 ? 0 : k - 1];
        dt_ = s.dt;
        dt_prev_ = s.dt_prev;
        history_valid_ = s.history_valid;
        force_be_ = s.force_be;
        step_ = s.iteration;
        proposal_end_ = s.proposal_end;
        const double* in = tape.device_states_.data() + k * tape.stride_;
        for (const auto& dev : circuit_.devices())
            in = dev->restore_state(in);
        return true;
    }

    /// Append the state at the top of stepper iteration `iteration` to
    /// the recording tape.
    void record_step(std::size_t iteration) {
        TransientTape& tape = *record_;
        tape.steps_.push_back({dt_, dt_prev_, proposal_end_, iteration,
                               history_valid_, force_be_});
        for (const auto& dev : circuit_.devices())
            dev->save_state(tape.device_states_);
    }

    /// Record a cancellation or failure at the current time and stop.
    void fail(SolveErrorCode code, const std::string& message) {
        result_.message = message;
        SolveError err;
        err.code = code;
        err.message = message;
        err.time = t_;
        err.last_iterate = x_; // last accepted state
        result_.error = std::move(err);
    }

    void step_to_end() {
        const std::size_t n_node_unknowns = circuit_.num_nodes() - 1;

        std::vector<double> breakpoints = circuit_.source_breakpoints();
        breakpoints.push_back(t_end_);
        std::size_t next_bp = 0;

        AnalysisState as;
        as.mode = AnalysisMode::kTransient;
        as.integrator = opts_.integrator;

        for (; step_ < opts_.max_steps; ++step_) {
            result_.time_reached = t_;
            if (t_ >= t_end_ - time_tol(t_end_)) {
                result_.completed = true;
                return;
            }
            // Cancellation checkpoint: one poll per transient step. Expiry
            // is graceful — everything integrated so far stays in the
            // result (states, time_reached), the error records where the
            // run stopped.
            {
                const SolveErrorCode status = ctx_.poll_cancellation();
                if (status != SolveErrorCode::kNone) {
                    ++ctx_.stats().cancelled_solves;
                    char buf[160];
                    std::snprintf(buf, sizeof(buf),
                                  "transient: %s at t=%.6e s (%.1f%% of "
                                  "t_end), partial waveform preserved",
                                  status == SolveErrorCode::kCancelled
                                      ? "cancelled"
                                      : "deadline expired",
                                  t_, 100.0 * t_ / t_end_);
                    fail(status, buf);
                    return;
                }
            }
            // Advance past consumed breakpoints; land on the next one.
            while (next_bp < breakpoints.size() &&
                   breakpoints[next_bp] <= t_ + time_tol(t_))
                ++next_bp;
            if (next_bp < breakpoints.size())
                dt_ = std::min(dt_, breakpoints[next_bp] - t_);
            dt_ = std::min(dt_, t_end_ - t_);
            dt_ = std::min(dt_, opts_.dt_max);
            proposal_end_ = std::max(proposal_end_, t_ + dt_);

            // Newton solve for the candidate step, shrinking dt on failure.
            la::Vector x_new;
            bool solved = false;
            for (int attempt = 0; attempt < 40; ++attempt) {
                as.time = t_ + dt_;
                as.dt = dt_;
                // After two failed attempts, drop this step to backward
                // Euler: L-stable and independent of the trapezoidal
                // current history, which can turn hostile across sharp
                // source edges.
                as.first_transient_step = force_be_ || attempt >= 2;
                x_new = x_; // warm start from the current state
                const int iters = detail::newton_raphson(
                    circuit_, as, ctx_, opts_, opts_.gmin, x_new);
                if (iters > 0) {
                    solved = true;
                    break;
                }
                // A Newton failure caused by cancellation must not be
                // "fixed" by shrinking dt — every retry would fail at its
                // first poll.
                {
                    const SolveErrorCode status = ctx_.cancellation_status();
                    if (status != SolveErrorCode::kNone) {
                        ++ctx_.stats().cancelled_solves;
                        char buf[160];
                        std::snprintf(buf, sizeof(buf),
                                      "transient: %s during Newton at "
                                      "t=%.6e s, partial waveform preserved",
                                      status == SolveErrorCode::kCancelled
                                          ? "cancelled"
                                          : "deadline expired",
                                      t_);
                        fail(status, buf);
                        return;
                    }
                }
                dt_ *= 0.25;
                if (dt_ < opts_.dt_min) {
                    char buf[160];
                    std::snprintf(buf, sizeof(buf),
                                  "transient: Newton failed at t=%.6e s "
                                  "(%.1f%% of t_end) with dt below dt_min "
                                  "(step %zu)",
                                  t_, 100.0 * t_ / t_end_, step_);
                    fail(SolveErrorCode::kDtUnderflow, buf);
                    return;
                }
            }
            if (!solved) {
                fail(SolveErrorCode::kNonConvergence,
                     "transient: Newton retries exhausted");
                return;
            }

            // Local truncation error control via linear-extrapolation
            // predictor.
            if (history_valid_ && dt_prev_ > 0.0) {
                la::Vector x_pred(x_.size());
                const double slope = dt_ / dt_prev_;
                for (std::size_t i = 0; i < x_.size(); ++i)
                    x_pred[i] = x_[i] + slope * (x_[i] - x_prev_[i]);
                const double ratio =
                    lte_ratio(x_new, x_pred, n_node_unknowns, opts_);
                if (ratio > 4.0 && dt_ > opts_.dt_min * 8.0) {
                    dt_ *= 0.5; // reject and retry with a finer step
                    continue;
                }
                const double grow =
                    ratio > 0.0 ? 0.9 * std::pow(ratio, -1.0 / 3.0) : 2.0;
                dt_prev_ = dt_;
                dt_ *= std::clamp(grow, 0.3, 2.0);
            } else {
                dt_prev_ = dt_;
                dt_ *= 2.0;
            }

            // Accept the step.
            ++ctx_.stats().transient_steps;
            for (const auto& dev : circuit_.devices())
                dev->accept_step(as, x_new);
            x_prev_ = std::move(x_);
            x_ = x_new;
            t_ = as.time;
            result_.append(t_, x_);
            result_.time_reached = t_;
            history_valid_ = true;
            force_be_ = false;

            // A breakpoint lands exactly on t: slope discontinuity ahead,
            // so the predictor and trapezoidal history are invalid.
            if (next_bp < breakpoints.size() &&
                std::fabs(breakpoints[next_bp] - t_) <= time_tol(t_)) {
                history_valid_ = false;
                force_be_ = true;
                dt_ = opts_.dt_initial;
            }

            if (record_ != nullptr)
                record_step(step_ + 1);

            if (stop_ && stop_(t_, x_)) {
                result_.completed = true;
                result_.stopped_early = true;
                return;
            }
        }
        fail(SolveErrorCode::kMaxStepsExceeded,
             "transient: max step count exceeded");
    }

    Circuit& circuit_;
    const SimContext& ctx_;
    const SolverOptions& opts_;
    const double t_end_;
    const StopCondition& stop_;
    const la::Vector* dc_guess_;
    TransientTape* record_; ///< empty tape this run fills, or null
    const TransientTape* resume_; ///< filled tape this run resumes, or null
    TransientResult result_;

    // Stepper state at the top of loop iteration step_.
    double t_ = 0.0;
    double dt_ = 0.0;
    la::Vector x_;          ///< accepted state at t_
    la::Vector x_prev_;     ///< accepted state one step earlier
    double dt_prev_ = 0.0;
    bool history_valid_ = false; ///< can we form the LTE predictor?
    bool force_be_ = true;       ///< backward Euler on first step / post-break
    std::size_t step_ = 0;
    double proposal_end_ = 0.0; ///< running max of proposed end times
};

TransientResult solve_transient(Circuit& circuit, const SimContext& ctx,
                                const SolverOptions& opts, double t_end,
                                const StopCondition& stop,
                                const la::Vector* dc_guess,
                                TransientTape* tape) {
    TFET_EXPECTS(t_end > 0.0);
    const ScopedContext bind(ctx);
    return TransientRun(circuit, ctx, opts, t_end, stop, dc_guess, tape)
        .run();
}

} // namespace tfetsram::spice
