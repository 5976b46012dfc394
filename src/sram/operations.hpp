#pragma once
// Programs a built cell's sources for hold, write, and read operations,
// including the assist-technique timing relationships of Figs. 6 and 7:
// the assisted rail/line moves before the wordline pulse and is restored
// after it, exactly as the paper's timing diagrams show. The program
// itself (OperationProgram) is plain data, so the flat and mixed-level
// array engines apply the same waveforms to their rows and columns.

#include <optional>

#include "la/matrix.hpp"
#include "spice/solver_options.hpp"
#include "spice/waveform.hpp"
#include "sram/assist.hpp"
#include "sram/cell.hpp"

namespace tfetsram::sram {

/// Edge rates and guard intervals of one operation.
struct OperationTiming {
    double t_settle = 50e-12;     ///< quiet hold before anything moves [s]
    /// Assist asserted this long before WL. Rail assists (VDD/GND moves)
    /// need the lead: the unidirectional pull-ups mean the internal high
    /// node can only follow a lowered VDD through reverse conduction, which
    /// takes a few hundred ps.
    double assist_lead = 500e-12;
    double assist_lag = 30e-12;   ///< assist released this long after WL [s]
    double assist_edge = 10e-12;  ///< assist ramp time [s]
    double wl_edge = 5e-12;       ///< wordline rise/fall time [s]
    double t_post = 400e-12;      ///< observation window after WL closes [s]
};

/// Key instants of a programmed operation.
struct OperationWindow {
    double wl_start = 0.0; ///< wordline begins its asserting edge
    double wl_mid = 0.0;   ///< wordline 50 % crossing of the asserting edge
    double wl_end = 0.0;   ///< wordline back at the inactive level
    double t_end = 0.0;    ///< end of the simulation window
};

/// One operation's waveform per rail role, as the cell driver applies it
/// to a cell's handles and the array engines fan it out over rows and
/// columns. Built from a CellConfig (its spec resolved by spec_of), the
/// operation, the assist and its fraction, the wordline assertion time and
/// the timing. Rails an operation leaves alone stay at their hold levels.
struct OperationProgram {
    spice::Waveform vdd;
    spice::Waveform vss;
    spice::Waveform wl;
    spice::Waveform bl;
    spice::Waveform blb;
    spice::Waveform sw_bl; ///< precharge switch control (1 closed, 0 open)
    spice::Waveform sw_blb;
    /// Read-port rails; empty when the spec has no read port.
    std::optional<spice::Waveform> rwl{};
    std::optional<spice::Waveform> rbl{};
    std::optional<spice::Waveform> sw_rbl{};
    OperationWindow window{}; ///< all zero for hold
    double assist_on = 0.0; ///< assisted rails and bitlines start to move [s]
    AssistLevels levels;    ///< each rail's active level (no assist: hold)

    /// Every rail at its quiescent hold level.
    static OperationProgram hold(const CellConfig& config);
    /// See program_write.
    static OperationProgram write(const CellConfig& config, bool value,
                                  double pulse_width, Assist assist,
                                  double fraction,
                                  const OperationTiming& timing);
    /// See program_read.
    static OperationProgram read(const CellConfig& config,
                                 double read_duration, Assist assist,
                                 double fraction,
                                 const OperationTiming& timing,
                                 bool float_bitlines);
};

/// Metadata of a programmed read.
struct ReadSetup {
    OperationWindow window;
    spice::NodeId sense_node = 0;   ///< bitline whose droop is sensed
    double precharge_level = 0.0;   ///< its starting level
    spice::NodeId disturb_node = 0; ///< internal node the read stresses
    spice::NodeId safe_node = 0;    ///< the opposite storage node
    bool q_high_init = false;       ///< initial cell state for this read
};

/// Reset every source to quiescent hold levels.
void program_hold(SramCell& cell);

/// Program a write of `value` into q using a wordline pulse of the given
/// width (time at full assertion, edges excluded). Returns the window.
/// The cell must be initialized to hold !value (see hold_state_guess).
OperationWindow program_write(SramCell& cell, bool value, double pulse_width,
                              Assist assist = Assist::kNone,
                              double fraction = kDefaultAssistFraction,
                              const OperationTiming& timing = {});

/// Program a read of duration `read_duration`. When `float_bitlines` is
/// true the precharge switches open before the wordline asserts so the
/// sensed bitline can droop (read-delay measurement); when false the
/// bitlines stay clamped at the precharge level for the whole access (the
/// worst-case disturb setup DRNM uses).
ReadSetup program_read(SramCell& cell, double read_duration,
                       Assist assist = Assist::kNone,
                       double fraction = kDefaultAssistFraction,
                       const OperationTiming& timing = {},
                       bool float_bitlines = false);

/// The write polarity a topology supports best; the asymmetric cell of
/// [15] can only write one polarity through its outward device. The
/// CellKind overload consults the built-in spec registry; the cell
/// overload honors a custom config.spec.
bool preferred_write_value(CellKind kind);
bool preferred_write_value(const SramCell& cell);

/// Initial-state helper: solve the hold operating point with the cell in
/// the requested state. Returns the solution and whether the intended
/// state actually holds (a cell that cannot hold data reports false).
///
/// `cold_guess`, when non-null, is an in/out cache for the state-agnostic
/// cold settling solve: a correctly-sized vector is used instead of
/// re-solving, and an empty/mis-sized one is filled after the solve.
/// Callers that evaluate several hold states at the same bias (both
/// stored values, or one state per bisection step) pay for the cold solve
/// once. When the cold solve does run, a correctly-sized cell.dc_seed is
/// used as its initial guess (see SramCell::dc_seed).
struct HoldState {
    la::Vector x;
    bool converged = false;
    bool state_ok = false;
};
HoldState solve_hold_state(SramCell& cell, bool q_high,
                           const spice::SolverOptions& opts,
                           la::Vector* cold_guess = nullptr);

} // namespace tfetsram::sram
