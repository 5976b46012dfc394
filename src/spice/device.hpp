#pragma once
// Device abstraction for the MNA engine. Each device knows how to bind
// every Jacobian / right-hand-side position it can ever touch to a slot of
// the assembly layout, once per topology revision (SPICE3's per-device
// TSTALLOC setup), how to linearize itself into those slots at a candidate
// solution ("stamping", the classic SPICE companion-model formulation), how
// to carry dynamic state across transient steps, and how to report its
// dissipated power for operating-point post-processing.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "spice/types.hpp"

namespace tfetsram::la {
class SparseMatrix;
} // namespace tfetsram::la

namespace tfetsram::spice {

class Waveform;

/// Which analysis the engine is running; transient adds companion models
/// for charge-storage elements.
enum class AnalysisMode { kDc, kTransient };

/// Numerical integration method for transient companion models.
enum class Integrator { kBackwardEuler, kTrapezoidal };

/// Context handed to Device::stamp for one linearization.
struct AnalysisState {
    AnalysisMode mode = AnalysisMode::kDc;
    double time = 0.0;          ///< time point being solved
    double dt = 0.0;            ///< step size (transient only)
    Integrator integrator = Integrator::kTrapezoidal;
    double source_scale = 1.0;  ///< global source scaling (source stepping)
    bool first_transient_step = false; ///< forces backward Euler on step 1
};

/// Index of one entry of the assembled system: a Jacobian entry (r * n + c
/// in the dense layout, the CSR value index in the sparse one) or a
/// right-hand-side row. Devices resolve every position they can ever stamp
/// once per topology revision (Device::bind, through a SlotBinder) and then
/// assemble with plain indexed adds. kDropSlot marks a ground row or
/// column: writes to it are discarded.
using Slot = std::uint32_t;
inline constexpr Slot kDropSlot = std::numeric_limits<Slot>::max();

/// Slots of a conductance g between a and b, in write order:
/// (a,a) += g, (b,b) += g, (a,b) -= g, (b,a) -= g.
struct ConductanceSlots {
    Slot aa = kDropSlot, bb = kDropSlot, ab = kDropSlot, ba = kDropSlot;
};

/// RHS slots of a current forced from `from` to `to`.
struct CurrentSlots {
    Slot from = kDropSlot, to = kDropSlot;
};

/// Slots of g*(v(cp) - v(cn)) flowing from `f` to `t`, in write order:
/// (f,cp) += g, (f,cn) -= g, (t,cp) -= g, (t,cn) += g.
struct TransconductanceSlots {
    Slot fp = kDropSlot, fn = kDropSlot, tp = kDropSlot, tn = kDropSlot;
};

/// Slots of a voltage source's constraint: the branch couplings of its
/// positive and negative node, then the branch row of the RHS.
struct VoltageSourceSlots {
    Slot pb = kDropSlot, bp = kDropSlot, nb = kDropSlot, bn = kDropSlot;
    Slot rhs = kDropSlot;
};

/// Resolves stamp positions to slots for one layout. Maps node/branch ids
/// to unknown indices (ground becomes kDropSlot) and checks every node and
/// branch once, here, so assembly writes unchecked. Four passes share the
/// device bind code:
///   - count: tallies the positions (sizes the CSR pattern build);
///   - pattern: registers each position in an unfinalized CSR matrix;
///   - CSR: resolves each position to its value index in a finalized one;
///   - dense: resolves (r, c) to r * n + c.
class SlotBinder {
public:
    /// Counting pass over a system of `unknowns` unknowns.
    SlotBinder(std::size_t num_nodes, std::size_t unknowns);
    /// Dense layout of an unknowns x unknowns row-major matrix.
    static SlotBinder dense(std::size_t num_nodes, std::size_t unknowns);
    /// Pattern pass into `jac` (not finalized) or CSR pass (finalized).
    SlotBinder(la::SparseMatrix& jac, std::size_t num_nodes);

    ConductanceSlots conductance(NodeId a, NodeId b);
    CurrentSlots current(NodeId from, NodeId to);
    TransconductanceSlots transconductance(NodeId f, NodeId t, NodeId cp,
                                           NodeId cn);
    VoltageSourceSlots voltage_source(std::size_t branch, NodeId pos,
                                      NodeId neg);

    /// Positions bound so far (duplicates included).
    [[nodiscard]] std::size_t positions() const { return positions_; }

private:
    enum class Mode { kCount, kPattern, kCsr, kDense };
    SlotBinder(Mode mode, la::SparseMatrix* jac, std::size_t num_nodes,
               std::size_t unknowns);

    /// Slot of unknown-index position (r, c); kDropSlot when either is
    /// ground (npos).
    Slot entry(std::size_t r, std::size_t c);
    /// Unknown index of a node, npos for ground.
    [[nodiscard]] std::size_t idx(NodeId n) const;
    /// RHS slot of a node.
    [[nodiscard]] Slot row(NodeId n) const;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    Mode mode_;
    la::SparseMatrix* sparse_;
    std::size_t num_nodes_;
    std::size_t n_;
    std::size_t positions_ = 0;
};

/// Accumulates the linearized system through bound slots. Rows follow the
/// KCL sign convention: "sum of currents leaving the node = injected
/// current". `jac` and `rhs` are the value arrays of the layout the slots
/// were bound to; the binder checked every slot against it.
class Stamper {
public:
    Stamper(double* jac, double* rhs) : jac_(jac), rhs_(rhs) {}

    void add_conductance(const ConductanceSlots& s, double g) {
        add(s.aa, g);
        add(s.bb, g);
        add(s.ab, -g);
        add(s.ba, -g);
    }

    void add_current(const CurrentSlots& s, double i) {
        if (s.from != kDropSlot)
            rhs_[s.from] -= i;
        if (s.to != kDropSlot)
            rhs_[s.to] += i;
    }

    void add_transconductance(const TransconductanceSlots& s, double g) {
        add(s.fp, g);
        add(s.fn, -g);
        add(s.tp, -g);
        add(s.tn, g);
    }

    void stamp_voltage_source(const VoltageSourceSlots& s, double volts) {
        add(s.pb, 1.0);
        add(s.bp, 1.0);
        add(s.nb, -1.0);
        add(s.bn, -1.0);
        rhs_[s.rhs] += volts;
    }

    /// One Jacobian accumulation (a gmin shunt on its diagonal slot).
    void add(Slot s, double v) {
        if (s != kDropSlot)
            jac_[s] += v;
    }

private:
    double* jac_;
    double* rhs_;
};

/// Base class of every circuit element.
class Device {
public:
    explicit Device(std::string label) : label_(std::move(label)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    [[nodiscard]] const std::string& label() const { return label_; }

    /// Resolve every position stamp() can write, in any analysis mode,
    /// to a slot of the binder's layout. Called once per topology revision
    /// and layout; stamp() then writes through the stored slots only.
    virtual void bind(SlotBinder& b) = 0;

    /// Linearize this device at candidate solution x and add its stamps.
    virtual void stamp(Stamper& st, const AnalysisState& as,
                       const la::Vector& x) = 0;

    /// Called once after the t=0 operating point, before transient stepping.
    virtual void begin_transient(const la::Vector& /*x0*/) {}

    /// Called when a transient step is accepted; commit dynamic state.
    virtual void accept_step(const AnalysisState& /*as*/,
                             const la::Vector& /*x*/) {}

    /// The companion state begin_transient/accept_step last committed:
    /// save_state appends it to `out`, restore_state reads the same values
    /// back from `in` and returns the position after them. Devices without
    /// dynamic state save nothing. A TransientTape uses the pair to resume
    /// a run from a recorded step.
    virtual void save_state(std::vector<double>& /*out*/) const {}
    virtual const double* restore_state(const double* in) { return in; }

    /// The waveform that makes this device time-dependent (a source's
    /// stimulus, a switch's control), or null when it has none.
    [[nodiscard]] virtual const Waveform* stimulus() const { return nullptr; }

    /// Power dissipated by this device at the given solution (DC sense;
    /// negative means the device delivers power, e.g. a source).
    [[nodiscard]] virtual double power(const la::Vector& x) const = 0;

    /// True for independent sources (used by power accounting).
    [[nodiscard]] virtual bool is_source() const { return false; }

private:
    std::string label_;
};

} // namespace tfetsram::spice
