#pragma once
// Latched behavioral cell model for the mixed-level array engine. A
// quiescent cell (wordline inactive) interacts with its column only
// through the DC leakage of its access devices — the storage caps hang on
// q/qb, not on the bitlines — so the whole cell collapses to a linearized
// Norton load per bitline: I(V) = i0 + g*(V - v0), with per-state
// coefficients extracted from single-cell hold-state DC solves.
//
// Extraction solves the probe cell's operating point at the column bias
// (vss, v_bl, v_blb), reads each bitline source's delivered current, and
// obtains the small-signal conductance by a finite-difference re-solve at
// v_bl + dv (warm-started from the base point, so each extra coefficient
// costs a couple of Newton iterations). Results are memoized per model,
// in-process only, by (state, quantized bias).

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>

#include "la/matrix.hpp"
#include "sram/cell.hpp"

namespace tfetsram::spice {
class SimContext;
} // namespace tfetsram::spice

namespace tfetsram::hier {

/// Latched state of one quiescent cell: the stored bit plus the storage
/// node voltages it settled at (used to seed DC when it promotes).
struct LatchedState {
    bool value = false;
    double v_q = 0.0;
    double v_qb = 0.0;
};

/// Linearized per-cell bitline load at one (state, bias) point. All
/// currents are per cell, positive when drawn out of the bitline into the
/// cell; MixedArray scales by the latched-cell population when stamping.
struct BitlineLoad {
    // Extraction bias.
    double v_bl = 0.0;
    double v_blb = 0.0;
    double vss = 0.0;
    // Norton coefficients.
    double i_bl = 0.0;  ///< BL leakage at the bias [A]
    double i_blb = 0.0; ///< BLB leakage at the bias [A]
    double g_bl = 0.0;  ///< dI_bl/dV_bl [S]
    double g_blb = 0.0; ///< dI_blb/dV_blb [S]
    // Storage-node voltages of the quiescent cell at the bias.
    double v_q = 0.0;
    double v_qb = 0.0;
    bool valid = false; ///< extraction solves converged and held the state
};

/// Extracts and caches BitlineLoad coefficients for one cell
/// configuration. Not thread-safe: each MixedArray owns one.
class LatchedCellModel {
public:
    /// `sim` (non-owning, optional) pins extraction solves to an explicit
    /// context; the probe cell carries it as SramCell::sim.
    explicit LatchedCellModel(const sram::CellConfig& config,
                              const spice::SimContext* sim = nullptr);
    ~LatchedCellModel();

    LatchedCellModel(const LatchedCellModel&) = delete;
    LatchedCellModel& operator=(const LatchedCellModel&) = delete;

    /// Load of a quiescent cell storing `value` at column levels
    /// (vss, v_bl, v_blb). Served from the memo when the quantized bias
    /// was seen before; otherwise from a fresh extraction. The reference
    /// stays valid for the model's lifetime.
    const BitlineLoad& load(bool value, double vss, double v_bl,
                            double v_blb);

    /// Finite-difference step used for the conductance extraction [V].
    void set_extraction_dv(double dv);

    /// Cold extractions actually solved (memo misses).
    [[nodiscard]] std::size_t extractions() const { return extractions_; }
    /// load() calls answered from the memo.
    [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }

private:
    /// Bias quantized to 1 uV so keys are robust against last-bit noise.
    using Key = std::tuple<bool, std::int64_t, std::int64_t, std::int64_t>;
    [[nodiscard]] Key quantize(bool value, double vss, double v_bl,
                               double v_blb) const;
    [[nodiscard]] BitlineLoad extract(bool value, double vss, double v_bl,
                                      double v_blb);

    std::unique_ptr<sram::SramCell> probe_;
    la::Vector cold_guess_;
    double extraction_dv_ = 10e-3;
    std::map<Key, BitlineLoad> memo_;
    std::size_t extractions_ = 0;
    std::size_t cache_hits_ = 0;
};

} // namespace tfetsram::hier
