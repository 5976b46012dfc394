#pragma once
// Device abstraction for the MNA engine. Each device knows how to linearize
// itself into the Jacobian / right-hand side at a given candidate solution
// ("stamping", the classic SPICE companion-model formulation), how to carry
// dynamic state across transient steps, and how to report its dissipated
// power for operating-point post-processing.

#include <cstdint>
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

/// Memoized stamp addresses for one sparse assembly mode. The first
/// assembly after a pattern rebuild records, per Jacobian write, the
/// packed (row, col) key and the CSR value slot the position search
/// resolved to; subsequent assemblies of the same mode replay the slots
/// and skip the per-write binary search. Every replayed write is
/// validated against its recorded key, so a device that changes its
/// stamp sequence (different positions or count) can never corrupt the
/// matrix: the replay falls back to searched writes mid-assembly and the
/// plan re-records on the next one. `generation` ties the slots to a
/// specific SparseMatrix::pattern_generation().
struct StampPlan {
    std::vector<std::uint64_t> keys;  ///< (row << 32) | col, per write
    std::vector<std::uint32_t> slots; ///< CSR value index, per write
    std::uint64_t generation = 0;     ///< pattern the slots belong to
    bool ok = false;                  ///< a complete recording is stored
    void reset() {
        keys.clear();
        slots.clear();
        ok = false;
    }
};

/// Accumulates the linearized system. Maps node/branch ids to unknown
/// indices (ground is eliminated) and enforces the KCL sign convention:
/// rows are "sum of currents leaving the node = injected current".
///
/// Three backends behind one stamping interface, so devices never know
/// which kernel the solver picked: dense (into a la::Matrix), sparse
/// numeric (into a finalized la::SparseMatrix pattern), and a
/// pattern-recording mode that registers the positions a stamp touches
/// without writing values (the symbolic pass of spice::build_pattern).
class Stamper {
public:
    Stamper(la::Matrix& jac, la::Vector& rhs, std::size_t num_nodes);

    /// Sparse numeric stamping; `jac`'s pattern must be finalized and
    /// cover every position the circuit stamps. With a non-null `plan`
    /// the stamper records or replays the position searches (see
    /// StampPlan); the plan must be dedicated to this matrix and one
    /// stamping sequence.
    Stamper(la::SparseMatrix& jac, la::Vector& rhs, std::size_t num_nodes,
            StampPlan* plan = nullptr);

    /// Seal the plan after a full stamping sequence: a completed
    /// recording becomes replayable; an under-consumed replay (fewer
    /// writes than recorded) is discarded. No-op without a plan.
    void finish_plan();

    /// Pattern-recording stamper: matrix writes register CSR entries in
    /// the (unfinalized) `jac`; rhs_scratch absorbs RHS writes unread.
    static Stamper pattern_recorder(la::SparseMatrix& jac,
                                    la::Vector& rhs_scratch,
                                    std::size_t num_nodes);

    /// Conductance g between nodes a and b.
    void add_conductance(NodeId a, NodeId b, double g);

    /// Current i forced from node `from` to node `to` (through the device).
    void add_current(NodeId from, NodeId to, double i);

    /// Current g*(v(ctrl_pos) - v(ctrl_neg)) from out_from to out_to.
    void add_transconductance(NodeId out_from, NodeId out_to, NodeId ctrl_pos,
                              NodeId ctrl_neg, double g);

    /// Voltage source constraint v(pos) - v(neg) = volts with its branch
    /// current unknown. `branch` is the source's branch index.
    void stamp_voltage_source(std::size_t branch, NodeId pos, NodeId neg,
                              double volts);

    /// Unknown-vector index of a branch current.
    [[nodiscard]] std::size_t branch_index(std::size_t branch) const;

    /// True in the pattern-recording backend: stamped values are
    /// discarded, so devices may skip expensive model evaluation and
    /// register their positions with placeholder values instead.
    [[nodiscard]] bool pattern_only() const { return pattern_only_; }

private:
    Stamper(la::SparseMatrix& jac, la::Vector& rhs, std::size_t num_nodes,
            bool pattern_only);

    /// Route one Jacobian accumulation to the active backend.
    void acc(std::size_t r, std::size_t c, double v);

    // Returns the unknown index for a node, or npos for ground.
    [[nodiscard]] std::size_t idx(NodeId n) const;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    la::Matrix* dense_ = nullptr;
    la::SparseMatrix* sparse_ = nullptr;
    bool pattern_only_ = false;
    StampPlan* plan_ = nullptr;
    bool replay_ = false;    ///< plan_ holds a recording being replayed
    std::size_t cursor_ = 0; ///< next plan entry to replay
    la::Vector& rhs_;
    std::size_t num_nodes_;
};

/// Base class of every circuit element.
class Device {
public:
    explicit Device(std::string label) : label_(std::move(label)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    [[nodiscard]] const std::string& label() const { return label_; }

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
