#pragma once
// SRAM array builder and functional driver: an R x C grid of the paper's
// cells with shared per-column bitline pairs, per-row wordlines, and
// per-column segmented virtual-ground rails (the architecture the paper
// cites, [7], to handle its small-beta drawbacks). This is where the
// half-select discussion becomes concrete: a write to one column
// read-disturbs every other cell on the asserted row; lowering the
// *unselected* columns' virtual grounds (the GND-lowering read assist)
// protects them, while the written column's ground stays at its write
// level.
//
// The driver is stateful: initialize() establishes a DC hold state, and
// each write()/read() runs a transient from the current state, leaving
// the array in the settled aftermath — so sequences of operations compose
// like they would on silicon.

#include <optional>
#include <string>
#include <vector>

#include "spice/solver_info.hpp"
#include "sram/assist.hpp"
#include "sram/cell.hpp"
#include "sram/operations.hpp"

namespace tfetsram::array {

/// Array shape and cell/assist configuration.
struct ArrayConfig {
    std::size_t rows = 4;
    std::size_t cols = 2;
    sram::CellConfig cell;        ///< per-cell parameters (6T topologies)
    double c_bitline_per_row = 2e-15; ///< bitline wire+junction cap per row [F]
    sram::Assist read_assist = sram::Assist::kNone;  ///< row-applied RA
    sram::Assist write_assist = sram::Assist::kNone; ///< row-applied WA
    double assist_fraction = sram::kDefaultAssistFraction;
    double write_pulse = 400e-12;   ///< wordline assertion for writes [s]
    double read_duration = 400e-12; ///< wordline assertion for reads [s]
    double sense_margin = 0.05;     ///< differential treated as a valid read [V]
};

/// Outcome of one array operation.
struct OpResult {
    bool ok = false;
    std::string message;
    double duration = 0.0; ///< simulated time [s]
};

/// Outcome of a read access.
struct ReadResult {
    bool ok = false;
    bool value = false;
    double differential = 0.0; ///< BL - BLB swing at sense time [V]
    std::string message;
};

/// Which linear kernel this array's circuit was routed to and how big the
/// system is — recorded per point by `run_all array_scaling`
/// (docs/SOLVER.md). The shared definition lives in spice/solver_info.hpp
/// so the mixed-level engine can report the same structure per active
/// partition.
using SolverInfo = spice::SolverInfo;

/// Validate an ArrayConfig before any MNA system is assembled from it.
/// Throws spice::SolveException with SolveErrorCode::kInvalidConfig on
/// degenerate shapes (rows = 0 or cols = 0), non-finite or negative
/// per-row bitline capacitance, a non-positive supply, or non-positive
/// operation windows — each of which would otherwise produce a malformed
/// (or empty) MNA system with a far less actionable failure downstream.
void validate_config(const ArrayConfig& config);

/// The rails of one column, shared by both array engines: the bitline
/// pair carrying the whole column's wire capacitance, each line's
/// precharge driver behind its switch, and the column's segmented virtual
/// ground.
struct ColumnRails {
    spice::NodeId bl = 0;
    spice::NodeId blb = 0;
    spice::NodeId bl_drv = 0;  ///< precharge driver behind sw_bl
    spice::NodeId blb_drv = 0; ///< precharge driver behind sw_blb
    spice::NodeId vss = 0;     ///< segmented virtual ground of this column
    spice::VoltageSource* v_bl = nullptr;
    spice::VoltageSource* v_blb = nullptr;
    spice::VoltageSource* v_vss = nullptr;
    spice::TimedSwitch* sw_bl = nullptr;
    spice::TimedSwitch* sw_blb = nullptr;
};

/// Add column `c`'s rails to `ckt`, driven at the `hold` program's levels,
/// and record them in `rails`. Both engines add the same nodes and
/// elements in the same order, so their MNA numbering agrees.
void add_column_rails(spice::Circuit& ckt, const ArrayConfig& config,
                      std::size_t c, const sram::OperationProgram& hold,
                      ColumnRails& rails);

/// The two programs of one array access. `access` drives the accessed
/// row's wordline and the target column's virtual ground, bitlines and
/// precharge switches. `unselected` drives every other column's virtual
/// ground: the row's half-selected cells are pseudo-read for the whole
/// access, so they take the read assist, on the access's own timeline.
/// The array's shared VDD stays at its nominal level, whatever the assist.
struct AccessPrograms {
    sram::OperationProgram access;
    sram::OperationProgram unselected;
};
AccessPrograms write_programs(const ArrayConfig& config, bool value);
/// Reads float the target column's precharged bitlines.
AccessPrograms read_programs(const ArrayConfig& config);

class SramArray {
public:
    /// Build the array circuit. `sim` (non-owning, optional) pins every
    /// operation to an explicit simulation context — backend policy and
    /// counter attribution included; nullptr defers to the caller's
    /// ambient context at each operation.
    explicit SramArray(const ArrayConfig& config,
                       const spice::SimContext* sim = nullptr);

    [[nodiscard]] std::size_t rows() const { return config_.rows; }
    [[nodiscard]] std::size_t cols() const { return config_.cols; }
    [[nodiscard]] const ArrayConfig& config() const { return config_; }
    [[nodiscard]] spice::Circuit& circuit() { return ckt_; }

    /// Establish the DC hold state with the given data (data[r][c]).
    /// Must be called before operations.
    [[nodiscard]] bool initialize(
        const std::vector<std::vector<bool>>& data);

    /// Write `value` into (row, col). Unselected columns keep their
    /// bitlines clamped at VDD, so their row-mates experience the
    /// half-select disturb.
    OpResult write(std::size_t row, std::size_t col, bool value);

    /// Read (row, col) with floating precharged bitlines on the target
    /// column; returns the sensed value and differential swing.
    ReadResult read(std::size_t row, std::size_t col);

    /// Stored value judged from the current state. Requires initialize().
    [[nodiscard]] bool stored(std::size_t row, std::size_t col) const;

    /// Storage-node separation |v(q) - v(qb)| of a cell (health check).
    [[nodiscard]] double separation(std::size_t row, std::size_t col) const;

    /// Linear-kernel routing of this array's circuit. Meaningful after the
    /// first solve (initialize()); before that it reports the selection
    /// the current policy would make, with zero nnz.
    [[nodiscard]] SolverInfo solver_info();

private:
    struct RowHandles {
        spice::NodeId wl_node = 0;
        spice::VoltageSource* wl = nullptr;
    };
    struct CellNodes {
        spice::NodeId q = 0;
        spice::NodeId qb = 0;
    };

    void quiesce(); ///< reset all sources to hold levels
    /// Quiesce, then fan `ops` out over the array for an access to
    /// (row, col).
    void program(std::size_t row, std::size_t col, const AccessPrograms& ops);
    [[nodiscard]] const CellNodes& at(std::size_t row, std::size_t col) const;
    [[nodiscard]] bool run(double t_end, std::string* message);

    ArrayConfig config_;
    const spice::SimContext* sim_ = nullptr;
    spice::Circuit ckt_;
    spice::NodeId vdd_node_ = 0;
    std::vector<RowHandles> row_handles_;
    std::vector<ColumnRails> col_handles_;
    std::vector<CellNodes> cells_; // row-major
    la::Vector state_;
    bool initialized_ = false;
};

} // namespace tfetsram::array
