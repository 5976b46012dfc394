#include "hier/latched_cell.hpp"

#include <cmath>

#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "sram/operations.hpp"
#include "util/contracts.hpp"

namespace tfetsram::hier {

using spice::Waveform;

LatchedCellModel::LatchedCellModel(const sram::CellConfig& config,
                                   const spice::SimContext* sim)
    : probe_(std::make_unique<sram::SramCell>(sram::build_cell(config, sim))) {
}

LatchedCellModel::~LatchedCellModel() = default;

void LatchedCellModel::set_extraction_dv(double dv) {
    TFET_EXPECTS(std::isfinite(dv) && dv > 0.0);
    extraction_dv_ = dv;
}

LatchedCellModel::Key LatchedCellModel::quantize(bool value, double vss,
                                                 double v_bl,
                                                 double v_blb) const {
    auto q = [](double v) {
        return static_cast<std::int64_t>(std::llround(v * 1e6));
    };
    return {value, q(vss), q(v_bl), q(v_blb)};
}

const BitlineLoad& LatchedCellModel::load(bool value, double vss,
                                          double v_bl, double v_blb) {
    const Key k = quantize(value, vss, v_bl, v_blb);
    auto it = memo_.find(k);
    if (it != memo_.end()) {
        ++cache_hits_;
        return it->second;
    }

    const BitlineLoad bl = extract(value, vss, v_bl, v_blb);
    ++extractions_;
    return memo_.emplace(k, bl).first->second;
}

BitlineLoad LatchedCellModel::extract(bool value, double vss, double v_bl,
                                      double v_blb) {
    BitlineLoad out;
    out.v_bl = v_bl;
    out.v_blb = v_blb;
    out.vss = vss;

    sram::SramCell& cell = *probe_;
    // Hold configuration (WL inactive, switches closed), then pin the
    // column rails at the requested bias.
    sram::program_hold(cell);
    cell.v_vss->set_waveform(Waveform::dc(vss));
    cell.v_bl->set_waveform(Waveform::dc(v_bl));
    cell.v_blb->set_waveform(Waveform::dc(v_blb));

    const spice::SimContext& ctx = spice::context_or_ambient(cell.sim);
    const spice::SolverOptions opts;
    // cold_guess_ is only a warm start here: solve_hold_state re-solves at
    // the current bias regardless, so reusing the previous bias's settling
    // point merely saves its Newton the cold ramp-up.
    sram::HoldState hs = sram::solve_hold_state(cell, value, opts,
                                                &cold_guess_);
    if (!hs.state_ok)
        return out; // valid stays false

    out.i_bl = cell.v_bl->delivered_current(hs.x);
    out.i_blb = cell.v_blb->delivered_current(hs.x);
    out.v_q = spice::node_voltage(hs.x, cell.q);
    out.v_qb = spice::node_voltage(hs.x, cell.qb);

    // Finite-difference conductances, one perturbed rail at a time,
    // warm-started from the base operating point.
    const double dv = extraction_dv_;
    auto perturbed = [&](spice::VoltageSource* src, double base,
                         double* i_out) {
        src->set_waveform(Waveform::dc(base + dv));
        la::Vector guess = hs.x;
        const spice::DcResult d =
            spice::solve_dc(cell.circuit, ctx, opts, 0.0, &guess);
        src->set_waveform(Waveform::dc(base));
        if (!d.converged)
            return false;
        *i_out = src->delivered_current(d.x);
        return true;
    };
    double i_bl_dv = 0.0;
    double i_blb_dv = 0.0;
    if (!perturbed(cell.v_bl, v_bl, &i_bl_dv) ||
        !perturbed(cell.v_blb, v_blb, &i_blb_dv))
        return out;
    out.g_bl = (i_bl_dv - out.i_bl) / dv;
    out.g_blb = (i_blb_dv - out.i_blb) / dv;
    out.valid = true;
    return out;
}

} // namespace tfetsram::hier
