#include "sram/metrics.hpp"

#include <cmath>

#include "spice/context.hpp"
#include "spice/report.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"

namespace tfetsram::sram {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
} // namespace

double hold_static_power(SramCell& cell, bool q_high,
                         const MetricOptions& opts) {
    program_hold(cell);
    const HoldState hs = solve_hold_state(cell, q_high, opts.solver);
    if (!hs.converged || !hs.state_ok)
        return kNaN; // a metastable point would misreport the leakage
    return spice::static_power(cell.circuit, hs.x);
}

double worst_hold_static_power(SramCell& cell, const MetricOptions& opts) {
    // Both stored values share the same bias, so the state-agnostic cold
    // settling solve is done once and reused via `cold`.
    program_hold(cell);
    la::Vector cold;
    auto power = [&](bool q_high) {
        const HoldState hs = solve_hold_state(cell, q_high, opts.solver, &cold);
        if (!hs.converged || !hs.state_ok)
            return kNaN;
        return spice::static_power(cell.circuit, hs.x);
    };
    const double p0 = power(false);
    const double p1 = power(true);
    if (std::isnan(p0))
        return p1;
    if (std::isnan(p1))
        return p0;
    return std::max(p0, p1);
}

DrnmResult dynamic_read_noise_margin(SramCell& cell, Assist assist,
                                     const MetricOptions& opts) {
    const spice::SimContext& ctx = spice::context_or_ambient(cell.sim);
    DrnmResult res;
    const ReadSetup setup = program_read(cell, opts.read_duration, assist,
                                         opts.assist_fraction, opts.timing,
                                         /*float_bitlines=*/false);
    const HoldState hs =
        solve_hold_state(cell, setup.q_high_init, opts.solver);
    if (!hs.converged || !hs.state_ok)
        return res;

    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, ctx, opts.solver, setup.window.t_end, nullptr, &hs.x);
    if (!tr.completed)
        return res;

    res.drnm = tr.min_difference(setup.safe_node, setup.disturb_node,
                                 setup.window.wl_start, setup.window.wl_end);
    // NaN means the trace held no samples in the read window (e.g. the
    // simulation stopped before the wordline opened): no measurement, not
    // a margin.
    if (std::isnan(res.drnm))
        return res;
    res.valid = true;
    const double final_sep =
        tr.final_voltage(setup.safe_node) - tr.final_voltage(setup.disturb_node);
    res.flipped = res.drnm <= 0.0 ||
                  final_sep < opts.flip_threshold_frac * cell.config.vdd;
    return res;
}

WriteOutcome attempt_write(SramCell& cell, double pulse_width, Assist assist,
                           const MetricOptions& opts, WriteBisection* shared) {
    const spice::SimContext& ctx = spice::context_or_ambient(cell.sim);
    WriteOutcome out;
    const bool value = preferred_write_value(cell);
    const OperationWindow w = program_write(cell, value, pulse_width, assist,
                                            opts.assist_fraction, opts.timing);
    // At t = 0 every source sits at its hold level regardless of the
    // programmed pulse width (excursions start at t_settle), so the hold
    // state is identical across attempts and cacheable by the caller.
    HoldState local;
    const HoldState* hs;
    if (shared != nullptr && shared->hold.has_value() &&
        shared->hold->x.size() == cell.circuit.num_unknowns()) {
        hs = &*shared->hold;
    } else {
        local = solve_hold_state(cell, !value, opts.solver);
        if (shared != nullptr) {
            shared->hold = std::move(local);
            hs = &*shared->hold;
        } else {
            hs = &local;
        }
    }
    if (!hs->converged || !hs->state_ok)
        return out;

    // Early exit once the cell has clearly settled after the pulse closed.
    const double vdd = cell.config.vdd;
    const spice::NodeId q = cell.q;
    const spice::NodeId qb = cell.qb;
    const double settle_after = w.wl_end + 50e-12;
    const auto stop = [&](double t, const la::Vector& x) {
        if (t < settle_after)
            return false;
        return std::fabs(spice::branch_voltage(x, q, qb)) > 0.85 * vdd;
    };

    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, ctx, opts.solver, w.t_end, stop, &hs->x,
        shared != nullptr ? &shared->tape : nullptr);
    if (!tr.completed)
        return out;

    out.simulated = true;
    const double sep = tr.final_voltage(q) - tr.final_voltage(qb);
    // Sign-adjust so "positive and large" always means "write succeeded".
    out.final_separation = value ? sep : -sep;
    out.flipped = out.final_separation > opts.flip_threshold_frac * vdd;
    return out;
}

double critical_wordline_pulse(SramCell& cell, Assist assist,
                               const MetricOptions& opts) {
    // Every attempt starts from the same hold state, solved once by the
    // first attempt, and resumes the first (longest) attempt's recorded
    // transient up to its own wordline falling edge.
    WriteBisection shared;

    // Write failure at the maximum pulse means WLcrit is infinite (the
    // paper's "infinite WLcrit" cases for inward nTFET access).
    const WriteOutcome at_max =
        attempt_write(cell, opts.wlcrit_max, assist, opts, &shared);
    if (!at_max.simulated)
        return kNaN;
    if (!at_max.flipped)
        return kInfinitePulse;

    const WriteOutcome at_min =
        attempt_write(cell, opts.wlcrit_min, assist, opts, &shared);
    if (!at_min.simulated)
        return kNaN;
    if (at_min.flipped)
        return opts.wlcrit_min;

    double lo = opts.wlcrit_min;  // known-failing
    double hi = opts.wlcrit_max;  // known-passing
    while ((hi - lo) / hi > opts.wlcrit_rel_tol) {
        const double mid = 0.5 * (lo + hi);
        const WriteOutcome out = attempt_write(cell, mid, assist, opts, &shared);
        if (!out.simulated)
            return kNaN;
        if (out.flipped)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

double write_delay(SramCell& cell, Assist assist, const MetricOptions& opts) {
    const spice::SimContext& ctx = spice::context_or_ambient(cell.sim);
    const bool value = preferred_write_value(cell);
    const OperationWindow w =
        program_write(cell, value, opts.write_probe_pulse, assist,
                      opts.assist_fraction, opts.timing);
    const HoldState hs = solve_hold_state(cell, !value, opts.solver);
    if (!hs.converged || !hs.state_ok)
        return kNaN;

    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, ctx, opts.solver, w.t_end, nullptr, &hs.x);
    if (!tr.completed)
        return kNaN;

    // Crossover: v(high-before) - v(low-before) drops through zero.
    const spice::NodeId was_high = value ? cell.qb : cell.q;
    const spice::NodeId was_low = value ? cell.q : cell.qb;
    const double t_cross =
        tr.first_crossing_below(was_high, was_low, 0.0, w.wl_start);
    if (std::isnan(t_cross))
        return kNaN;
    return t_cross - w.wl_mid;
}

double read_delay(SramCell& cell, Assist assist, const MetricOptions& opts) {
    const spice::SimContext& ctx = spice::context_or_ambient(cell.sim);
    const ReadSetup setup = program_read(cell, opts.read_duration, assist,
                                         opts.assist_fraction, opts.timing,
                                         /*float_bitlines=*/true);
    const HoldState hs =
        solve_hold_state(cell, setup.q_high_init, opts.solver);
    if (!hs.converged || !hs.state_ok)
        return kNaN;

    const double threshold = setup.precharge_level - opts.read_sense_margin;
    const spice::NodeId sense = setup.sense_node;
    const double t_from = setup.window.wl_start;
    const auto stop = [&](double t, const la::Vector& x) {
        return t > t_from && spice::node_voltage(x, sense) < threshold;
    };

    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, ctx, opts.solver, setup.window.t_end, stop, &hs.x);
    if (!tr.completed)
        return kNaN;

    const double t_sense = tr.first_crossing_below(
        sense, spice::kGround, threshold, t_from);
    if (std::isnan(t_sense))
        return kNaN;
    return t_sense - setup.window.wl_mid;
}

double write_energy(SramCell& cell, double pulse_width, Assist assist,
                    const MetricOptions& opts) {
    const spice::SimContext& ctx = spice::context_or_ambient(cell.sim);
    const bool value = preferred_write_value(cell);
    const OperationWindow w = program_write(cell, value, pulse_width, assist,
                                            opts.assist_fraction, opts.timing);
    const HoldState hs = solve_hold_state(cell, !value, opts.solver);
    if (!hs.converged || !hs.state_ok)
        return kNaN;
    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, ctx, opts.solver, w.t_end, nullptr, &hs.x);
    if (!tr.completed)
        return kNaN;
    return spice::source_energy(cell.circuit, tr, 0.0, w.t_end);
}

double read_energy(SramCell& cell, Assist assist, const MetricOptions& opts) {
    const spice::SimContext& ctx = spice::context_or_ambient(cell.sim);
    const ReadSetup setup = program_read(cell, opts.read_duration, assist,
                                         opts.assist_fraction, opts.timing,
                                         /*float_bitlines=*/false);
    const HoldState hs = solve_hold_state(cell, setup.q_high_init, opts.solver);
    if (!hs.converged || !hs.state_ok)
        return kNaN;
    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, ctx, opts.solver, setup.window.t_end, nullptr, &hs.x);
    if (!tr.completed)
        return kNaN;
    return spice::source_energy(cell.circuit, tr, 0.0, setup.window.t_end);
}

double data_retention_voltage(const CellConfig& config, double vdd_max,
                              const MetricOptions& opts) {
    const double v_hi = vdd_max > 0.0 ? vdd_max : config.vdd;
    auto holds_both = [&](double vdd) {
        CellConfig cfg = config;
        cfg.vdd = vdd;
        SramCell cell = build_cell(cfg);
        program_hold(cell);
        // Both stored values share the cold settling solve at this vdd.
        la::Vector cold;
        for (bool q_high : {false, true}) {
            const HoldState hs =
                solve_hold_state(cell, q_high, opts.solver, &cold);
            if (!hs.converged || !hs.state_ok)
                return false;
        }
        return true;
    };
    if (!holds_both(v_hi))
        return kNaN;
    double lo = 0.02;  // assumed failing
    double hi = v_hi;  // known holding
    if (holds_both(lo))
        return lo;
    while (hi - lo > 0.01) {
        const double mid = 0.5 * (lo + hi);
        if (holds_both(mid))
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace tfetsram::sram
