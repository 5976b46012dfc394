#pragma once
// Three-terminal transistor element. Channel current comes from a pluggable
// TransistorModel (analytic physics or lookup table); gate-source and
// gate-drain capacitances from the model's C-V characteristic integrate via
// the engine's companion models. Width scales all per-micron quantities.

#include "spice/device.hpp"
#include "spice/transistor_model.hpp"

namespace tfetsram::spice {

class DeviceEvalBatch;

class Transistor final : public Device {
public:
    Transistor(std::string label, TransistorModelPtr model, NodeId drain,
               NodeId gate, NodeId source, double width_um);

    void stamp(Stamper& st, const AnalysisState& as,
               const la::Vector& x) override;
    void begin_transient(const la::Vector& x0) override;
    void accept_step(const AnalysisState& as, const la::Vector& x) override;
    void save_state(std::vector<double>& out) const override;
    const double* restore_state(const double* in) override;
    [[nodiscard]] double power(const la::Vector& x) const override;

    /// Channel current (drain -> source, amps) at the given solution.
    [[nodiscard]] double drain_current(const la::Vector& x) const;

    [[nodiscard]] double width_um() const { return width_um_; }
    [[nodiscard]] const TransistorModel& model() const { return *model_; }

    /// Swap the device model (used by Monte-Carlo re-simulation).
    void set_model(TransistorModelPtr model);

    /// Adopt a precomputed I-V slot in the circuit's DeviceEvalBatch.
    /// Called by the batch during layout build; stamp() consumes the slot
    /// whenever the batch holds fresh samples and falls back to the scalar
    /// model call otherwise (pattern discovery, standalone stamping).
    void attach_batch(const DeviceEvalBatch* batch, std::size_t slot) {
        batch_ = batch;
        batch_slot_ = slot;
    }

    [[nodiscard]] NodeId drain() const { return d_; }
    [[nodiscard]] NodeId gate() const { return g_; }
    [[nodiscard]] NodeId source() const { return s_; }

private:
    /// Dynamic state of one internal capacitor branch.
    struct CapState {
        double v_prev = 0.0;
        double i_prev = 0.0;
    };

    void stamp_cap(Stamper& st, const AnalysisState& as, NodeId a, NodeId b,
                   double farads, const CapState& cs) const;
    static void accept_cap(const AnalysisState& as, double v_new, double farads,
                           CapState& cs);

    TransistorModelPtr model_;
    const DeviceEvalBatch* batch_ = nullptr;
    std::size_t batch_slot_ = 0;
    NodeId d_;
    NodeId g_;
    NodeId s_;
    double width_um_;
    CapState cgs_state_;
    CapState cgd_state_;
};

} // namespace tfetsram::spice
