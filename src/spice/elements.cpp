#include "spice/elements.hpp"

#include <algorithm>
#include <cmath>

#include "spice/solution.hpp"

namespace tfetsram::spice {

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string label, NodeId a, NodeId b, double ohms)
    : Device(std::move(label)), a_(a), b_(b), ohms_(ohms) {
    TFET_EXPECTS(ohms > 0.0);
    TFET_EXPECTS(a != b);
}

void Resistor::bind(SlotBinder& b) { g_slots_ = b.conductance(a_, b_); }

void Resistor::stamp(Stamper& st, const AnalysisState& /*as*/,
                     const la::Vector& /*x*/) {
    st.add_conductance(g_slots_, 1.0 / ohms_);
}

double Resistor::power(const la::Vector& x) const {
    const double v = branch_voltage(x, a_, b_);
    return v * v / ohms_;
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string label, NodeId a, NodeId b, double farads)
    : Device(std::move(label)), a_(a), b_(b), farads_(farads) {
    TFET_EXPECTS(farads > 0.0);
    TFET_EXPECTS(a != b);
}

void Capacitor::bind(SlotBinder& b) {
    g_slots_ = b.conductance(a_, b_);
    i_slots_ = b.current(a_, b_);
}

void Capacitor::stamp(Stamper& st, const AnalysisState& as,
                      const la::Vector& /*x*/) {
    if (as.mode == AnalysisMode::kDc)
        return; // open circuit at DC
    TFET_EXPECTS(as.dt > 0.0);
    const bool use_trap = as.integrator == Integrator::kTrapezoidal &&
                          !as.first_transient_step;
    double geq = 0.0;
    double ieq = 0.0;
    if (use_trap) {
        geq = 2.0 * farads_ / as.dt;
        ieq = -(geq * v_prev_ + i_prev_);
    } else {
        geq = farads_ / as.dt;
        ieq = -geq * v_prev_;
    }
    st.add_conductance(g_slots_, geq);
    st.add_current(i_slots_, ieq);
}

void Capacitor::begin_transient(const la::Vector& x0) {
    v_prev_ = branch_voltage(x0, a_, b_);
    i_prev_ = 0.0; // quiescent: no displacement current at the DC point
}

void Capacitor::accept_step(const AnalysisState& as, const la::Vector& x) {
    const double v_new = branch_voltage(x, a_, b_);
    const bool use_trap = as.integrator == Integrator::kTrapezoidal &&
                          !as.first_transient_step;
    if (use_trap) {
        const double geq = 2.0 * farads_ / as.dt;
        i_prev_ = geq * (v_new - v_prev_) - i_prev_;
    } else {
        i_prev_ = farads_ / as.dt * (v_new - v_prev_);
    }
    v_prev_ = v_new;
}

void Capacitor::save_state(std::vector<double>& out) const {
    out.push_back(v_prev_);
    out.push_back(i_prev_);
}

const double* Capacitor::restore_state(const double* in) {
    v_prev_ = in[0];
    i_prev_ = in[1];
    return in + 2;
}

double Capacitor::power(const la::Vector& /*x*/) const {
    return 0.0; // lossless; no DC dissipation
}

// ----------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(std::string label, NodeId pos, NodeId neg,
                             Waveform wave)
    : Device(std::move(label)), pos_(pos), neg_(neg), wave_(std::move(wave)) {
    TFET_EXPECTS(pos != neg);
}

void VoltageSource::bind(SlotBinder& b) {
    slots_ = b.voltage_source(branch_, pos_, neg_);
}

void VoltageSource::stamp(Stamper& st, const AnalysisState& as,
                          const la::Vector& /*x*/) {
    const double v = wave_.at(as.time) * as.source_scale;
    st.stamp_voltage_source(slots_, v);
}

double VoltageSource::delivered_current(const la::Vector& x) const {
    TFET_EXPECTS(unknown_index_ < x.size());
    // The MNA branch current flows pos -> (through source) -> neg, so the
    // current delivered out of the + terminal is its negation.
    return -x[unknown_index_];
}

double VoltageSource::power(const la::Vector& x) const {
    const double v = branch_voltage(x, pos_, neg_);
    // Positive when absorbing; a supply delivering power reports negative.
    return -v * delivered_current(x);
}

// ----------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string label, NodeId from, NodeId to,
                             Waveform wave)
    : Device(std::move(label)), from_(from), to_(to), wave_(std::move(wave)) {
    TFET_EXPECTS(from != to);
}

void CurrentSource::bind(SlotBinder& b) { slots_ = b.current(from_, to_); }

void CurrentSource::stamp(Stamper& st, const AnalysisState& as,
                          const la::Vector& /*x*/) {
    st.add_current(slots_, wave_.at(as.time) * as.source_scale);
}

double CurrentSource::power(const la::Vector& x) const {
    const double i = wave_.at(0.0);
    const double v = branch_voltage(x, from_, to_);
    return v * i; // absorbing when current flows from high to low potential
}

// ---------------------------------------------------------- LinearizedLoad

LinearizedLoad::LinearizedLoad(std::string label, NodeId node)
    : Device(std::move(label)), node_(node) {
    TFET_EXPECTS(node != kGround);
}

void LinearizedLoad::set_load(double scale, double i0, double g, double v0) {
    TFET_EXPECTS(scale >= 0.0);
    TFET_EXPECTS(std::isfinite(i0) && std::isfinite(g) && std::isfinite(v0));
    // A negative small-signal conductance (possible at an extraction bias
    // on a steep tunneling branch) would de-stabilize the otherwise
    // passive lumped load; clamp to the constant-current term only.
    scale_ = scale;
    i0_ = i0;
    g_ = g > 0.0 ? g : 0.0;
    v0_ = v0;
}

void LinearizedLoad::bind(SlotBinder& b) {
    g_slots_ = b.conductance(node_, kGround);
    i_slots_ = b.current(node_, kGround);
}

void LinearizedLoad::stamp(Stamper& st, const AnalysisState& /*as*/,
                           const la::Vector& /*x*/) {
    if (scale_ == 0.0)
        return;
    // Norton form of scale*(i0 + g*(V - v0)) leaving the node: conductance
    // scale*g to ground plus the bias-point constant scale*(i0 - g*v0).
    st.add_conductance(g_slots_, scale_ * g_);
    st.add_current(i_slots_, scale_ * (i0_ - g_ * v0_));
}

double LinearizedLoad::power(const la::Vector& x) const {
    const double v = node_voltage(x, node_);
    return v * current_at(v);
}

// ------------------------------------------------------------- TimedSwitch

TimedSwitch::TimedSwitch(std::string label, NodeId a, NodeId b, double r_on,
                         double r_off, Waveform control)
    : Device(std::move(label)), a_(a), b_(b), r_on_(r_on), r_off_(r_off),
      control_(std::move(control)) {
    TFET_EXPECTS(a != b);
    TFET_EXPECTS(r_on > 0.0 && r_off >= r_on);
}

double TimedSwitch::resistance_at(double t) const {
    const double c = std::clamp(control_.at(t), 0.0, 1.0);
    // Geometric interpolation: log-resistance moves linearly with control.
    return r_off_ * std::pow(r_on_ / r_off_, c);
}

void TimedSwitch::bind(SlotBinder& b) { g_slots_ = b.conductance(a_, b_); }

void TimedSwitch::stamp(Stamper& st, const AnalysisState& as,
                        const la::Vector& /*x*/) {
    st.add_conductance(g_slots_, 1.0 / resistance_at(as.time));
}

double TimedSwitch::power(const la::Vector& x) const {
    const double v = branch_voltage(x, a_, b_);
    return v * v / resistance_at(0.0);
}

} // namespace tfetsram::spice
