#include "sram/operations.hpp"

#include <utility>

#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "sram/cell_spec.hpp"

namespace tfetsram::sram {

namespace {

using spice::Waveform;

/// Base level until t_on, ramp to `active` over `edge`, hold until t_off,
/// ramp back. Collapses to DC when the levels coincide.
Waveform excursion(double base, double active, double t_on, double t_off,
                   double edge) {
    if (base == active)
        return Waveform::dc(base);
    TFET_EXPECTS(t_off >= t_on + edge);
    return Waveform::pwl({{t_on, base},
                          {t_on + edge, active},
                          {t_off, active},
                          {t_off + edge, base}});
}

/// Switch control that opens (1 -> 0) shortly before t_open.
Waveform open_before(double t_open) {
    const double lead = 4e-12;
    TFET_EXPECTS(t_open > lead);
    return Waveform::pwl({{t_open - lead, 1.0}, {t_open - lead / 2.0, 0.0}});
}

/// The instants of an access whose wordline stays asserted for `width`:
/// the assist moves first, the wordline pulses, the assist releases
/// assist_lag after the wordline closes.
struct Timeline {
    OperationWindow window;
    double assist_on = 0.0;
    double wl_fall = 0.0; ///< wordline starts its releasing edge
    double assist_off = 0.0;
    const OperationTiming& timing;

    Timeline(double width, const OperationTiming& t) : timing(t) {
        OperationWindow& w = window;
        assist_on = t.t_settle;
        w.wl_start = assist_on + t.assist_edge + t.assist_lead;
        w.wl_mid = w.wl_start + t.wl_edge / 2.0;
        wl_fall = w.wl_start + t.wl_edge + width;
        w.wl_end = wl_fall + t.wl_edge;
        assist_off = w.wl_end + t.assist_lag;
        w.t_end = w.wl_end + t.t_post;
    }

    /// A rail or bitline that moves with the assist.
    [[nodiscard]] Waveform assisted(double base, double active) const {
        return excursion(base, active, assist_on, assist_off,
                         timing.assist_edge);
    }
    /// A wordline pulse.
    [[nodiscard]] Waveform pulsed(double base, double active) const {
        return excursion(base, active, window.wl_start, wl_fall,
                         timing.wl_edge);
    }
};

/// Hold everywhere, then what every access shares: the window, the
/// assist's levels, and the supply rails moving with the assist.
OperationProgram begin_access(const CellConfig& config, const Timeline& tl,
                              Assist assist, double fraction) {
    OperationProgram p = OperationProgram::hold(config);
    p.levels = assist_levels(config.vdd, p.levels.wl_active, assist, fraction);
    p.window = tl.window;
    p.assist_on = tl.assist_on;
    p.vdd = tl.assisted(config.vdd, p.levels.vdd);
    p.vss = tl.assisted(0.0, p.levels.vss);
    return p;
}

void set(spice::VoltageSource* source, Waveform& w) {
    if (source != nullptr)
        source->set_waveform(std::move(w));
}

void set(spice::TimedSwitch* sw, Waveform& w) {
    if (sw != nullptr)
        sw->set_control(std::move(w));
}

/// Move the program onto every handle the cell has. Deck-built cells may
/// omit individual drivers (a deck that ties VSS straight to ground has no
/// Vvss).
void apply(OperationProgram&& p, SramCell& cell) {
    set(cell.v_vdd, p.vdd);
    set(cell.v_vss, p.vss);
    set(cell.v_wl, p.wl);
    set(cell.v_bl, p.bl);
    set(cell.v_blb, p.blb);
    set(cell.sw_bl, p.sw_bl);
    set(cell.sw_blb, p.sw_blb);
    if (p.rwl)
        set(cell.v_rwl, *p.rwl);
    if (p.rbl)
        set(cell.v_rbl, *p.rbl);
    if (p.sw_rbl)
        set(cell.sw_rbl, *p.sw_rbl);
}

} // namespace

OperationProgram OperationProgram::hold(const CellConfig& config) {
    const CellSpec& spec = spec_of(config);
    const double vdd = config.vdd;
    const bool active_low = wordline_active_low(spec, config.access);
    // Read-port topologies ([14]'s 7T, the 8T/9T stacks) clamp their
    // write bitlines low precisely to keep their outward access devices
    // out of reverse bias (CellSpec::bl_hold_frac).
    const double bl_hold = spec.bl_hold_frac * vdd;
    OperationProgram p{
        .vdd = Waveform::dc(vdd),
        .vss = Waveform::dc(0.0),
        .wl = Waveform::dc(active_low ? vdd : 0.0),
        .bl = Waveform::dc(bl_hold),
        .blb = Waveform::dc(bl_hold),
        .sw_bl = Waveform::dc(1.0),
        .sw_blb = Waveform::dc(1.0),
        .levels = assist_levels(vdd, active_low ? 0.0 : vdd, Assist::kNone,
                                0.0),
    };
    if (spec.has_read_port()) {
        p.rwl = Waveform::dc((1.0 - spec.rwl_active_frac) * vdd);
        p.rbl = Waveform::dc(vdd);
        p.sw_rbl = Waveform::dc(1.0);
    }
    return p;
}

OperationProgram OperationProgram::write(const CellConfig& config, bool value,
                                         double pulse_width, Assist assist,
                                         double fraction,
                                         const OperationTiming& timing) {
    TFET_EXPECTS(pulse_width > 0.0);
    TFET_EXPECTS(assist == Assist::kNone || is_write_assist(assist));
    const CellSpec& spec = spec_of(config);
    // Some topologies (the asymmetric cell of [15]) bake an assist into
    // their write operation; writes always use it.
    if (spec.implicit_write_assist != Assist::kNone && assist == Assist::kNone)
        assist = spec.implicit_write_assist;
    if (spec.single_sided_write)
        TFET_EXPECTS(value == spec.preferred_write);

    const Timeline tl(pulse_width, timing);
    OperationProgram p = begin_access(config, tl, assist, fraction);
    const AssistLevels& lv = p.levels;
    p.wl = tl.pulsed(p.wl.initial(), lv.wl_active);
    // Bitlines switch from their hold level to write levels alongside the
    // assist and return after.
    p.bl = tl.assisted(p.bl.initial(), value ? lv.bl_high : lv.bl_low);
    p.blb = tl.assisted(p.blb.initial(), value ? lv.bl_low : lv.bl_high);
    return p;
}

OperationProgram OperationProgram::read(const CellConfig& config,
                                        double read_duration, Assist assist,
                                        double fraction,
                                        const OperationTiming& timing,
                                        bool float_bitlines) {
    TFET_EXPECTS(read_duration > 0.0);
    TFET_EXPECTS(assist == Assist::kNone || is_read_assist(assist));
    const CellSpec& spec = spec_of(config);
    const double vdd = config.vdd;
    const Timeline tl(read_duration, timing);
    OperationProgram p = begin_access(config, tl, assist, fraction);
    const AssistLevels& lv = p.levels;
    const double wl_start = tl.window.wl_start;

    switch (spec.read_style) {
    case ReadStyle::kDifferential:
        p.wl = tl.pulsed(p.wl.initial(), lv.wl_active);
        // Both bitlines precharged (possibly to a lowered level per the
        // bitline-lowering RA).
        p.bl = tl.assisted(vdd, lv.bl_high);
        p.blb = tl.assisted(vdd, lv.bl_high);
        if (float_bitlines) {
            p.sw_bl = open_before(wl_start);
            p.sw_blb = open_before(wl_start);
        }
        break;
    case ReadStyle::kReadPort:
        // Write wordline stays off; the read wordline swings to its active
        // level — low for the 7T's source-side read buffer
        // (rwl_active_frac = 0), high for the 8T/9T gated stacks.
        p.rwl = tl.pulsed((1.0 - spec.rwl_active_frac) * vdd,
                          spec.rwl_active_frac * vdd);
        p.rbl = tl.assisted(vdd, lv.bl_high);
        if (float_bitlines)
            p.sw_rbl = open_before(wl_start);
        break;
    case ReadStyle::kSingleSidedBlb:
        // Read through the inward device on BLB: it pulls qb (storing 0)
        // up while BLB droops.
        p.wl = tl.pulsed(p.wl.initial(), lv.wl_active);
        p.blb = tl.assisted(vdd, lv.bl_high);
        if (float_bitlines)
            p.sw_blb = open_before(wl_start);
        break;
    }
    return p;
}

bool preferred_write_value(CellKind kind) {
    return builtin_spec(kind).preferred_write;
}

bool preferred_write_value(const SramCell& cell) {
    // The asymmetric cell's outward access device can only discharge q, so
    // it writes 0 natively; every other topology is exercised writing 1.
    return spec_of(cell).preferred_write;
}

void program_hold(SramCell& cell) {
    apply(OperationProgram::hold(cell.config), cell);
}

OperationWindow program_write(SramCell& cell, bool value, double pulse_width,
                              Assist assist, double fraction,
                              const OperationTiming& timing) {
    OperationProgram p = OperationProgram::write(
        cell.config, value, pulse_width, assist, fraction, timing);
    const OperationWindow window = p.window;
    apply(std::move(p), cell);
    return window;
}

ReadSetup program_read(SramCell& cell, double read_duration, Assist assist,
                       double fraction, const OperationTiming& timing,
                       bool float_bitlines) {
    OperationProgram p = OperationProgram::read(
        cell.config, read_duration, assist, fraction, timing, float_bitlines);
    ReadSetup setup;
    setup.window = p.window;
    setup.precharge_level = p.levels.bl_high;
    apply(std::move(p), cell);

    // The node storing 0 on the accessed side is pulled up through its
    // access device, so reads start from q = 0 — except the asymmetric
    // cell, which reads through BLB and so starts from qb = 0. A read port
    // decouples the storage nodes: q only sees capacitive kick there.
    const ReadStyle style = spec_of(cell).read_style;
    const bool blb_side = style == ReadStyle::kSingleSidedBlb;
    setup.q_high_init = blb_side;
    setup.disturb_node = blb_side ? cell.qb : cell.q;
    setup.safe_node = blb_side ? cell.q : cell.qb;
    setup.sense_node = style == ReadStyle::kReadPort ? cell.rbl
                       : blb_side                    ? cell.blb
                                                     : cell.bl;
    return setup;
}

HoldState solve_hold_state(SramCell& cell, bool q_high,
                           const spice::SolverOptions& opts,
                           la::Vector* cold_guess) {
    // A cell pinned to an explicit context runs under it; one that carries
    // none runs under the caller's ambient context.
    const spice::SimContext& ctx = spice::context_or_ambient(cell.sim);
    HoldState hs;
    const double vdd = cell.config.vdd;
    const std::size_t n = cell.circuit.num_unknowns();

    // First let every rail settle from a cold start (the cell lands in an
    // arbitrary state), then override the storage nodes with the intended
    // state and re-solve inside that basin of attraction. The cold solve
    // depends only on the programmed source levels at t = 0, so callers
    // iterating at fixed bias (WLcrit bisection, both-state retention
    // checks) pass `cold_guess` to solve it once and reuse it; when it is
    // actually solved, cell.dc_seed — the nominal-sample solution the MC
    // driver plants — warm-starts it.
    la::Vector guess;
    if (cold_guess != nullptr && cold_guess->size() == n) {
        guess = *cold_guess;
    } else {
        const la::Vector* seed =
            cell.dc_seed.size() == n ? &cell.dc_seed : nullptr;
        spice::DcResult d0 =
            spice::solve_dc(cell.circuit, ctx, opts, 0.0, seed);
        guess = d0.converged ? std::move(d0.x) : la::Vector(n, 0.0);
        if (cold_guess != nullptr)
            *cold_guess = guess;
    }
    TFET_ASSERT(cell.q >= 1 && cell.qb >= 1);
    guess[cell.q - 1] = q_high ? vdd : 0.0;
    guess[cell.qb - 1] = q_high ? 0.0 : vdd;

    auto check = [&](const la::Vector& x) {
        const double diff = spice::branch_voltage(x, cell.q, cell.qb);
        return q_high ? diff > 0.4 * vdd : diff < -0.4 * vdd;
    };

    spice::DcResult d1 =
        spice::solve_dc(cell.circuit, ctx, opts, 0.0, &guess);
    hs.converged = d1.converged;
    hs.x = std::move(d1.x);
    hs.state_ok = hs.converged && check(hs.x);

    if (!hs.state_ok) {
        // The Newton path can wander out of the intended basin into the
        // metastable saddle. Retry with a tight update limit: small steps
        // from the forced guess stay inside the basin.
        spice::SolverOptions crawl = opts;
        crawl.dv_limit = spice::kCrawlDvLimit;
        spice::DcResult d2 =
            spice::solve_dc(cell.circuit, ctx, crawl, 0.0, &guess);
        if (d2.converged && check(d2.x)) {
            hs.converged = true;
            hs.x = std::move(d2.x);
            hs.state_ok = true;
        }
    }
    return hs;
}

} // namespace tfetsram::sram
