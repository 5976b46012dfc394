#include "sram/snm.hpp"

#include <algorithm>
#include <cmath>

#include "sram/operations.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"

namespace tfetsram::sram {

namespace {

/// Program the static bias condition on a built cell.
void program_static_bias(SramCell& cell, SnmMode mode) {
    program_hold(cell);
    if (mode == SnmMode::kRead) {
        cell.v_wl->set_waveform(
            spice::Waveform::dc(cell.wl_active_level()));
        cell.v_bl->set_waveform(spice::Waveform::dc(cell.config.vdd));
        cell.v_blb->set_waveform(spice::Waveform::dc(cell.config.vdd));
    }
}

/// Trace the VTC: clamp `forced` over [0, vdd], record `observed`.
/// Returns false on any DC failure.
bool trace_vtc(const CellConfig& config, SnmMode mode, bool force_q,
               std::size_t points, const spice::SolverOptions& opts,
               std::vector<double>& in, std::vector<double>& out) {
    SramCell cell = build_cell(config);
    const spice::SimContext& ctx = spice::ambient_context();
    program_static_bias(cell, mode);
    const spice::NodeId forced = force_q ? cell.q : cell.qb;
    const spice::NodeId observed = force_q ? cell.qb : cell.q;
    cell.circuit.add_vsource("Vforce", forced, spice::kGround,
                             spice::Waveform::dc(0.0));
    cell.circuit.prepare();
    spice::VoltageSource* vforce = cell.circuit.voltage_sources().back();

    in.clear();
    out.clear();
    la::Vector guess;
    double v_solved = -1.0; // last successfully solved clamp voltage

    // Adaptive continuation: the VTC transition region has enormous gain,
    // so a full grid step can strand Newton between branches. On failure,
    // walk from the last solved point with halved sub-steps.
    auto solve_at = [&](double v) {
        vforce->set_waveform(spice::Waveform::dc(v));
        spice::DcResult r = spice::solve_dc(cell.circuit, ctx, opts, 0.0,
                                            guess.empty() ? nullptr : &guess);
        if (r.converged) {
            guess = std::move(r.x);
            v_solved = v;
            return true;
        }
        return false;
    };

    for (std::size_t i = 0; i < points; ++i) {
        const double v = config.vdd * static_cast<double>(i) /
                         static_cast<double>(points - 1);
        if (!solve_at(v)) {
            const double lo = v_solved < 0.0 ? 0.0 : v_solved;
            double dv = std::max((v - lo) / 2.0, 1e-5);
            int tries = 0;
            while (v_solved < v - 1e-12 && tries < 400) {
                const double next = std::min(v, (v_solved < 0.0 ? 0.0 : v_solved) + dv);
                if (solve_at(next))
                    dv *= 1.5; // recover step size after success
                else
                    dv /= 2.0;
                if (dv < 1e-6)
                    break;
                ++tries;
            }
            if (v_solved < v - 1e-12)
                return false;
        }
        in.push_back(v);
        out.push_back(spice::node_voltage(guess, observed));
    }
    return true;
}

/// Piecewise-linear evaluation of a sampled function on a uniform input
/// grid over [0, vdd], clamped outside.
double interp_uniform(const std::vector<double>& ys, double vdd, double x) {
    const auto n = ys.size();
    const double pos =
        std::clamp(x / vdd, 0.0, 1.0) * static_cast<double>(n - 1);
    const auto lo = std::min(static_cast<std::size_t>(pos), n - 2);
    const double frac = pos - static_cast<double>(lo);
    return ys[lo] + frac * (ys[lo + 1] - ys[lo]);
}

/// Is the loop still bistable with equal series noise s at both inverter
/// inputs (Seevinck)? Composite map h(y) = f(g(y + s) + s) for one noise
/// polarity, f(g(y - s) - s) for the other. The loop is bistable while
/// the restoring drive d(y) = h(y) - y still points toward both stable
/// states: a d < 0 run (toward the low state) followed by a d > 0 run
/// (toward the high state). Counting interior sign *crossings* instead
/// would miss stable points that sit exactly on the rails, where d
/// touches zero without crossing — VTCs that saturate hard (CMOS, or
/// high-on-current model sets) park both states there and would read as
/// monostable despite a wide-open butterfly.
bool bistable_under_noise(const std::vector<double>& f,
                          const std::vector<double>& g, double vdd, double s,
                          bool polarity) {
    const int n = 512;
    const double eps = 1e-6; // ignore leakage-level offsets at the rails
    bool seen_low_basin = false;
    for (int i = 0; i <= n; ++i) {
        const double y = vdd * static_cast<double>(i) / n;
        const double x = polarity ? interp_uniform(g, vdd, y + s) + s
                                  : interp_uniform(g, vdd, y - s) - s;
        const double d = interp_uniform(f, vdd, x) - y;
        if (d < -eps)
            seen_low_basin = true;
        else if (d > eps && seen_low_basin)
            return true;
    }
    return false;
}

/// Largest series noise (one polarity) that keeps the loop bistable —
/// Seevinck's exact SNM definition, via bisection.
double lobe_margin(const std::vector<double>& f, const std::vector<double>& g,
                   double vdd, bool polarity) {
    if (!bistable_under_noise(f, g, vdd, 0.0, polarity))
        return 0.0;
    double lo = 0.0;        // bistable
    double hi = 0.6 * vdd;  // beyond any possible margin
    for (int i = 0; i < 40; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (bistable_under_noise(f, g, vdd, mid, polarity))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace

SnmResult static_noise_margin(const CellConfig& config, SnmMode mode,
                              std::size_t points,
                              const spice::SolverOptions& opts) {
    TFET_EXPECTS(points >= 8);
    SnmResult res;

    // Curve 1: qb = f(q), q clamped on a uniform grid.
    std::vector<double> in1;
    std::vector<double> f;
    if (!trace_vtc(config, mode, /*force_q=*/true, points, opts, in1, f))
        return res;
    // Curve 2: q = g(qb), qb clamped on a uniform grid.
    std::vector<double> in2;
    std::vector<double> g;
    if (!trace_vtc(config, mode, /*force_q=*/false, points, opts, in2, g))
        return res;

    res.lobe_high = lobe_margin(f, g, config.vdd, true);
    res.lobe_low = lobe_margin(f, g, config.vdd, false);
    res.snm = std::min(res.lobe_high, res.lobe_low);
    res.valid = true;
    return res;
}

} // namespace tfetsram::sram
