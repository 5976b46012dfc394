#pragma once
// The linear and source elements: resistor, capacitor, independent voltage
// and current sources. Transistors live in transistor.hpp.

#include "spice/device.hpp"
#include "spice/waveform.hpp"

namespace tfetsram::spice {

/// Linear resistor between two nodes.
class Resistor final : public Device {
public:
    Resistor(std::string label, NodeId a, NodeId b, double ohms);

    void bind(SlotBinder& b) override;
    void stamp(Stamper& st, const AnalysisState& as,
               const la::Vector& x) override;
    [[nodiscard]] double power(const la::Vector& x) const override;

    [[nodiscard]] NodeId a() const { return a_; }
    [[nodiscard]] NodeId b() const { return b_; }
    [[nodiscard]] double resistance() const { return ohms_; }

private:
    NodeId a_;
    NodeId b_;
    double ohms_;
    ConductanceSlots g_slots_;
};

/// Linear capacitor between two nodes. Open circuit in DC; integrates with
/// the engine's trapezoidal/backward-Euler companion in transient.
class Capacitor final : public Device {
public:
    Capacitor(std::string label, NodeId a, NodeId b, double farads);

    void bind(SlotBinder& b) override;
    void stamp(Stamper& st, const AnalysisState& as,
               const la::Vector& x) override;
    void begin_transient(const la::Vector& x0) override;
    void accept_step(const AnalysisState& as, const la::Vector& x) override;
    void save_state(std::vector<double>& out) const override;
    const double* restore_state(const double* in) override;
    [[nodiscard]] double power(const la::Vector& x) const override;

    [[nodiscard]] NodeId a() const { return a_; }
    [[nodiscard]] NodeId b() const { return b_; }
    [[nodiscard]] double capacitance() const { return farads_; }

private:
    NodeId a_;
    NodeId b_;
    double farads_;
    ConductanceSlots g_slots_; ///< transient companion only
    CurrentSlots i_slots_;
    double v_prev_ = 0.0; ///< accepted branch voltage at the previous step
    double i_prev_ = 0.0; ///< accepted branch current at the previous step
};

/// Independent voltage source driven by a Waveform. Owns one MNA branch.
class VoltageSource final : public Device {
public:
    VoltageSource(std::string label, NodeId pos, NodeId neg, Waveform wave);

    void bind(SlotBinder& b) override;
    void stamp(Stamper& st, const AnalysisState& as,
               const la::Vector& x) override;
    [[nodiscard]] double power(const la::Vector& x) const override;
    [[nodiscard]] bool is_source() const override { return true; }
    [[nodiscard]] const Waveform* stimulus() const override { return &wave_; }

    /// Replace the stimulus (e.g. to program an SRAM operation).
    void set_waveform(Waveform wave) { wave_ = std::move(wave); }
    [[nodiscard]] const Waveform& waveform() const { return wave_; }

    /// Current delivered into the circuit from the + terminal.
    [[nodiscard]] double delivered_current(const la::Vector& x) const;

    /// Assigned by Circuit: ordinal among voltage sources.
    void set_branch(std::size_t branch, std::size_t unknown_index) {
        branch_ = branch;
        unknown_index_ = unknown_index;
    }
    [[nodiscard]] std::size_t branch() const { return branch_; }
    [[nodiscard]] NodeId pos() const { return pos_; }
    [[nodiscard]] NodeId neg() const { return neg_; }

private:
    NodeId pos_;
    NodeId neg_;
    Waveform wave_;
    std::size_t branch_ = 0;
    std::size_t unknown_index_ = 0;
    VoltageSourceSlots slots_;
};

/// Independent current source pushing current from `from` to `to` through
/// itself (i.e. it injects current into `to`).
class CurrentSource final : public Device {
public:
    CurrentSource(std::string label, NodeId from, NodeId to, Waveform wave);

    void bind(SlotBinder& b) override;
    void stamp(Stamper& st, const AnalysisState& as,
               const la::Vector& x) override;
    [[nodiscard]] double power(const la::Vector& x) const override;
    [[nodiscard]] bool is_source() const override { return true; }
    [[nodiscard]] const Waveform* stimulus() const override { return &wave_; }

    void set_waveform(Waveform wave) { wave_ = std::move(wave); }
    [[nodiscard]] const Waveform& waveform() const { return wave_; }
    [[nodiscard]] NodeId from() const { return from_; }
    [[nodiscard]] NodeId to() const { return to_; }

private:
    NodeId from_;
    NodeId to_;
    Waveform wave_;
    CurrentSlots slots_;
};

/// Lumped Norton boundary load: the mixed-level array engine's stamp for a
/// population of latched (behaviorally collapsed) cells hanging off one
/// bitline. Models `scale` identical cells, each drawing
///   i(V) = i0 + g * (V - v0)
/// from `node` to ground — the first-order linearization of the latched
/// cells' leakage around the extraction bias v0 (src/hier/latched_cell).
/// The load is linear, so it converges in the same Newton iterate as the
/// rest of the system; DC and transient stamp identically (the latched
/// cells' charge storage is carried by the bitline wire capacitance, which
/// the engine keeps at full-column value). Parameters are mutable: the
/// engine re-linearizes event-style on wordline edges and guard-band
/// excursions (docs/HIERARCHY.md).
class LinearizedLoad final : public Device {
public:
    LinearizedLoad(std::string label, NodeId node);

    void bind(SlotBinder& b) override;
    void stamp(Stamper& st, const AnalysisState& as,
               const la::Vector& x) override;
    [[nodiscard]] double power(const la::Vector& x) const override;

    /// Reprogram the load: `scale` cells each drawing i0 + g*(V - v0).
    /// A scale of 0 turns the load off (stamps nothing; its slots stay
    /// bound).
    void set_load(double scale, double i0, double g, double v0);

    [[nodiscard]] double scale() const { return scale_; }
    /// Total current drawn from the node at voltage v.
    [[nodiscard]] double current_at(double v) const {
        return scale_ * (i0_ + g_ * (v - v0_));
    }
    [[nodiscard]] double bias() const { return v0_; }
    [[nodiscard]] double i0() const { return i0_; }
    [[nodiscard]] double g() const { return g_; }
    [[nodiscard]] NodeId node() const { return node_; }

private:
    NodeId node_;
    double scale_ = 0.0;
    double i0_ = 0.0;
    double g_ = 0.0;
    double v0_ = 0.0;
    ConductanceSlots g_slots_;
    CurrentSlots i_slots_;
};

/// Time-controlled switch (e.g. a bitline precharge device). The control
/// waveform is interpreted as a conductance blend: 1 -> r_on, 0 -> r_off,
/// interpolated geometrically in resistance so transitions are smooth.
class TimedSwitch final : public Device {
public:
    TimedSwitch(std::string label, NodeId a, NodeId b, double r_on,
                double r_off, Waveform control);

    void bind(SlotBinder& b) override;
    void stamp(Stamper& st, const AnalysisState& as,
               const la::Vector& x) override;
    [[nodiscard]] double power(const la::Vector& x) const override;
    [[nodiscard]] const Waveform* stimulus() const override {
        return &control_;
    }

    void set_control(Waveform control) { control_ = std::move(control); }

    /// Resistance at time t.
    [[nodiscard]] double resistance_at(double t) const;

    [[nodiscard]] NodeId a() const { return a_; }
    [[nodiscard]] NodeId b() const { return b_; }

private:
    NodeId a_;
    NodeId b_;
    double r_on_;
    double r_off_;
    Waveform control_;
    ConductanceSlots g_slots_;
};

} // namespace tfetsram::spice
