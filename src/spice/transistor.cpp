#include "spice/transistor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "spice/eval_batch.hpp"
#include "spice/solution.hpp"

namespace tfetsram::spice {

namespace {
// Floor on the channel output conductance stamped into the Jacobian. Keeps
// the matrix well-conditioned when a device is deeply off without visibly
// perturbing currents (1 fS across 1 V is 1e-15 A).
constexpr double kGdsFloor = 1e-15;
} // namespace

Transistor::Transistor(std::string label, TransistorModelPtr model,
                       NodeId drain, NodeId gate, NodeId source,
                       double width_um)
    : Device(std::move(label)), model_(std::move(model)), d_(drain), g_(gate),
      s_(source), width_um_(width_um) {
    TFET_EXPECTS(model_ != nullptr);
    TFET_EXPECTS(width_um > 0.0);
    TFET_EXPECTS(drain != source);
}

CvSample Transistor::cv_at(double vgs, double vds) {
    // A NaN bias never hits, so the NaN key of an empty memo cannot either.
    if (std::bit_cast<std::uint64_t>(vgs) ==
            std::bit_cast<std::uint64_t>(cv_memo_.vgs) &&
        std::bit_cast<std::uint64_t>(vds) ==
            std::bit_cast<std::uint64_t>(cv_memo_.vds) &&
        !std::isnan(vgs))
        return cv_memo_.cv;
    cv_memo_ = {vgs, vds, model_->cv(vgs, vds)};
    return cv_memo_.cv;
}

void Transistor::bind(SlotBinder& b) {
    gm_slots_ = b.transconductance(d_, s_, g_, s_);
    gds_slots_ = b.conductance(d_, s_);
    ids_slots_ = b.current(d_, s_);
    cgs_slots_ = {b.conductance(g_, s_), b.current(g_, s_)};
    cgd_slots_ = {b.conductance(g_, d_), b.current(g_, d_)};
}

void Transistor::stamp(Stamper& st, const AnalysisState& as,
                       const la::Vector& x) {
    const double vgs = branch_voltage(x, g_, s_);
    const double vds = branch_voltage(x, d_, s_);

    // Assembly precomputes every transistor's sample in one batched sweep
    // (DeviceEvalBatch evaluates at the same x this stamp sees, with
    // bitwise-identical arithmetic). The scalar call covers a transistor
    // stamped outside any circuit.
    const IvSample iv = batch_ != nullptr ? batch_->sample(batch_slot_)
                                          : model_->iv(vgs, vds);
    const double ids = iv.ids * width_um_;
    const double gm = iv.gm * width_um_;
    const double gds = std::max(iv.gds * width_um_, kGdsFloor);

    // Linearized channel: Ids ~= ids + gm*(dvgs) + gds*(dvds), flowing D->S.
    st.add_transconductance(gm_slots_, gm);
    st.add_conductance(gds_slots_, gds);
    const double ieq = ids - gm * vgs - gds * vds;
    st.add_current(ids_slots_, ieq);

    if (as.mode == AnalysisMode::kTransient) {
        const CvSample cv = cv_at(vgs, vds);
        stamp_cap(st, as, cgs_slots_, cv.cgs * width_um_, cgs_state_);
        stamp_cap(st, as, cgd_slots_, cv.cgd * width_um_, cgd_state_);
    }
}

void Transistor::stamp_cap(Stamper& st, const AnalysisState& as,
                           const CapSlots& slots, double farads,
                           const CapState& cs) {
    TFET_EXPECTS(as.dt > 0.0);
    const bool use_trap = as.integrator == Integrator::kTrapezoidal &&
                          !as.first_transient_step;
    double geq = 0.0;
    double ieq = 0.0;
    if (use_trap) {
        geq = 2.0 * farads / as.dt;
        ieq = -(geq * cs.v_prev + cs.i_prev);
    } else {
        geq = farads / as.dt;
        ieq = -geq * cs.v_prev;
    }
    st.add_conductance(slots.g, geq);
    st.add_current(slots.i, ieq);
}

void Transistor::accept_cap(const AnalysisState& as, double v_new,
                            double farads, CapState& cs) {
    const bool use_trap = as.integrator == Integrator::kTrapezoidal &&
                          !as.first_transient_step;
    if (use_trap) {
        const double geq = 2.0 * farads / as.dt;
        cs.i_prev = geq * (v_new - cs.v_prev) - cs.i_prev;
    } else {
        cs.i_prev = farads / as.dt * (v_new - cs.v_prev);
    }
    cs.v_prev = v_new;
}

void Transistor::begin_transient(const la::Vector& x0) {
    cgs_state_ = {branch_voltage(x0, g_, s_), 0.0};
    cgd_state_ = {branch_voltage(x0, g_, d_), 0.0};
    cv_memo_ = kNoCvMemo;
}

void Transistor::accept_step(const AnalysisState& as, const la::Vector& x) {
    const double vgs = branch_voltage(x, g_, s_);
    const double vds = branch_voltage(x, d_, s_);
    const CvSample cv = cv_at(vgs, vds);
    accept_cap(as, vgs, cv.cgs * width_um_, cgs_state_);
    accept_cap(as, branch_voltage(x, g_, d_), cv.cgd * width_um_, cgd_state_);
}

void Transistor::save_state(std::vector<double>& out) const {
    out.insert(out.end(), {cgs_state_.v_prev, cgs_state_.i_prev,
                           cgd_state_.v_prev, cgd_state_.i_prev});
}

const double* Transistor::restore_state(const double* in) {
    cgs_state_ = {in[0], in[1]};
    cgd_state_ = {in[2], in[3]};
    return in + 4;
}

double Transistor::drain_current(const la::Vector& x) const {
    const double vgs = branch_voltage(x, g_, s_);
    const double vds = branch_voltage(x, d_, s_);
    return model_->iv(vgs, vds).ids * width_um_;
}

double Transistor::power(const la::Vector& x) const {
    return drain_current(x) * branch_voltage(x, d_, s_);
}

} // namespace tfetsram::spice
