#pragma once
// The paper's figures of merit:
//  * static power during hold (Sec. 3/5),
//  * DRNM — dynamic read noise margin: the minimum q/qb separation during
//    a read access [18],
//  * WLcrit — the minimum wordline pulse width that flips the cell during
//    a write [19] (infinite when the cell cannot be written at all),
//  * write delay (WL assertion to storage-node crossover) and read delay
//    (WL assertion to a sensable bitline droop), Sec. 5.

#include <limits>
#include <optional>

#include "spice/solver_options.hpp"
#include "spice/transient.hpp"
#include "sram/operations.hpp"

namespace tfetsram::sram {

/// Numerical and measurement knobs shared by the metrics.
struct MetricOptions {
    /// The tolerance set of every solve a metric makes; the cell's context
    /// supplies only policy (backend, stats, faults, deadline).
    spice::SolverOptions solver;
    OperationTiming timing;
    double assist_fraction = kDefaultAssistFraction;
    double read_duration = 500e-12;   ///< WL assertion for DRNM reads [s]
    double wlcrit_min = 1e-12;        ///< bisection floor [s]
    /// Pulses beyond this count as write failure. Sized for the slowest
    /// corner the paper sweeps (VDD = 0.5 V needs ~3 ns, Fig. 12a).
    double wlcrit_max = 6e-9;
    double wlcrit_rel_tol = 0.03;     ///< bisection convergence
    double write_probe_pulse = 4.0e-9; ///< pulse for delay measurement [s]
    double read_sense_margin = 0.05;  ///< bitline droop that counts as read [V]
    double flip_threshold_frac = 0.5; ///< |q-qb| fraction of VDD deciding a flip
};

/// Hold-state static power with the cell storing q = q_high. Computed from
/// the device equations at the solved operating point. NaN when the hold
/// state cannot be established.
double hold_static_power(SramCell& cell, bool q_high,
                         const MetricOptions& opts = {});

/// Worst case over both stored values.
double worst_hold_static_power(SramCell& cell, const MetricOptions& opts = {});

struct DrnmResult {
    double drnm = 0.0;  ///< min separation of safe/disturb node [V]
    bool flipped = false;
    bool valid = false; ///< simulation succeeded
};

/// Dynamic read noise margin, optionally with a read assist.
DrnmResult dynamic_read_noise_margin(SramCell& cell,
                                     Assist assist = Assist::kNone,
                                     const MetricOptions& opts = {});

/// Critical wordline pulse width, optionally with a write assist. Returns
/// +infinity when even the longest pulse cannot flip the cell (write
/// failure), and NaN when the simulation itself fails.
double critical_wordline_pulse(SramCell& cell, Assist assist = Assist::kNone,
                               const MetricOptions& opts = {});

/// Write delay: wordline 50 % assertion to storage-node crossover, using a
/// long probe pulse. NaN when the write fails.
double write_delay(SramCell& cell, Assist assist = Assist::kNone,
                   const MetricOptions& opts = {});

/// Read delay: wordline 50 % assertion to the sensed bitline drooping by
/// `read_sense_margin`, with floating (precharged) bitlines. NaN when no
/// droop develops.
double read_delay(SramCell& cell, Assist assist = Assist::kNone,
                  const MetricOptions& opts = {});

/// Result of one attempted write (used by WLcrit and exposed for tests).
struct WriteOutcome {
    bool simulated = false;
    bool flipped = false;
    double final_separation = 0.0; ///< v(q) - v(qb) at the end, sign-adjusted
};

/// What the attempts of one WLcrit bisection share. Every attempt starts
/// from the same hold state, and each one's write transient repeats the
/// longest attempt's steps bit for bit up to its own wordline falling edge.
struct WriteBisection {
    std::optional<HoldState> hold; ///< solved by the first attempt
    spice::TransientTape tape;     ///< recorded by the first attempt
};

/// Run one write of the preferred polarity with the given pulse width.
/// `shared`, when non-null, carries state across the attempts of one
/// bisection (critical_wordline_pulse): the hold state at t = 0 does not
/// depend on the pulse width, so it is solved exactly once, and the first
/// attempt records its transient on the tape, from which every later
/// attempt resumes. Results are bitwise those of a call without `shared`.
/// A cached hold state whose size no longer matches the circuit is ignored
/// and re-solved.
WriteOutcome attempt_write(SramCell& cell, double pulse_width, Assist assist,
                           const MetricOptions& opts,
                           WriteBisection* shared = nullptr);

inline constexpr double kInfinitePulse =
    std::numeric_limits<double>::infinity();

/// Dynamic energy of one write operation (all sources, assist rails
/// included), using a pulse of `pulse_width`. This quantifies the "dynamic
/// power overhead to generate lowered GND" the paper concedes in Sec. 4.3.
/// NaN when the simulation fails.
double write_energy(SramCell& cell, double pulse_width,
                    Assist assist = Assist::kNone,
                    const MetricOptions& opts = {});

/// Dynamic energy of one read access (clamped bitlines, assist included).
double read_energy(SramCell& cell, Assist assist = Assist::kNone,
                   const MetricOptions& opts = {});

/// Data-retention voltage: the lowest supply at which the cell still holds
/// both states (bisection on VDD over hold operating points). The floor of
/// the paper's low-VDD ambitions. NaN if even the starting VDD fails.
double data_retention_voltage(const CellConfig& config,
                              double vdd_max = 0.0, // 0 -> config.vdd
                              const MetricOptions& opts = {});

} // namespace tfetsram::sram
