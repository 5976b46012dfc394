#pragma once
// Three-terminal transistor element. Channel current comes from a pluggable
// TransistorModel (analytic physics or lookup table); gate-source and
// gate-drain capacitances from the model's C-V characteristic integrate via
// the engine's companion models. Width scales all per-micron quantities.

#include <limits>

#include "spice/device.hpp"
#include "spice/transistor_model.hpp"

namespace tfetsram::spice {

class DeviceEvalBatch;

class Transistor final : public Device {
public:
    Transistor(std::string label, TransistorModelPtr model, NodeId drain,
               NodeId gate, NodeId source, double width_um);

    void bind(SlotBinder& b) override;
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

    /// Swap the device model (used by Monte-Carlo re-simulation). Clears
    /// the C-V memo.
    void set_model(TransistorModelPtr model);

    /// Adopt a precomputed I-V slot in the circuit's DeviceEvalBatch.
    /// Called by the batch during layout build; stamp() then consumes the
    /// slot (assemble() evaluates the batch before every stamp sweep). A
    /// transistor outside any circuit stamps through the scalar model call.
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

    /// Bound slots of one internal capacitor's companion stamp.
    struct CapSlots {
        ConductanceSlots g;
        CurrentSlots i;
    };

    static void stamp_cap(Stamper& st, const AnalysisState& as,
                          const CapSlots& slots, double farads,
                          const CapState& cs);
    static void accept_cap(const AnalysisState& as, double v_new, double farads,
                           CapState& cs);

    /// model_->cv(vgs, vds) through the one-entry memo below.
    CvSample cv_at(double vgs, double vds);

    /// The last C-V sample this transistor evaluated, keyed on the bitwise
    /// (vgs, vds) pair. The stepper warm-starts every step (and every
    /// dt-shrink retry) from the accepted state, so the first transient
    /// stamp asks for the point accept_step just evaluated. The sample is
    /// a pure function of the model and the key, so a hit is bitwise the
    /// model call; the memo is cleared (a NaN key, which never hits) by
    /// set_model and begin_transient — the latter so a table edited in
    /// place between runs is read afresh. 32 bytes per transistor.
    struct CvMemo {
        double vgs;
        double vds;
        CvSample cv;
    };
    static constexpr CvMemo kNoCvMemo{
        std::numeric_limits<double>::quiet_NaN(), 0.0, {0.0, 0.0}};

    TransistorModelPtr model_;
    const DeviceEvalBatch* batch_ = nullptr;
    std::size_t batch_slot_ = 0;
    NodeId d_;
    NodeId g_;
    NodeId s_;
    double width_um_;
    CapState cgs_state_;
    CapState cgd_state_;
    // Channel slots, then the transient-only capacitor slots.
    TransconductanceSlots gm_slots_;
    ConductanceSlots gds_slots_;
    CurrentSlots ids_slots_;
    CapSlots cgs_slots_;
    CapSlots cgd_slots_;
    CvMemo cv_memo_ = kNoCvMemo;
};

} // namespace tfetsram::spice
