#pragma once
// AC small-signal analysis: linearize every device at a solved operating
// point and sweep a complex phasor system (G + jwC) x = b across
// frequency. Used here for loop-gain and bandwidth studies of the SRAM
// cells (e.g. the regeneration gain that decides the butterfly margins),
// and a standard feature of any production circuit engine.

#include <complex>
#include <optional>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/solve_error.hpp"
#include "spice/solver_options.hpp"

namespace tfetsram::spice {

/// One AC excitation: a unit (or scaled) phasor replacing the waveform of
/// a chosen voltage source; every other independent source is AC-quiet.
struct AcStimulus {
    const VoltageSource* source = nullptr;
    double magnitude = 1.0; ///< phasor magnitude [V]
};

/// Result of an AC sweep: node voltage phasors per frequency.
class AcResult {
public:
    bool ok = false;
    std::string message;
    std::optional<SolveError> error; ///< structured cause when !ok — for a
                                     ///< failed operating point this carries
                                     ///< the full DC strategy chain

    [[nodiscard]] const std::vector<double>& frequencies() const {
        return freq_;
    }
    /// Phasor of `node` at sweep point i.
    [[nodiscard]] std::complex<double> phasor(NodeId node,
                                              std::size_t i) const;
    /// |V(node)| in dB relative to 1 V at sweep point i.
    [[nodiscard]] double magnitude_db(NodeId node, std::size_t i) const;

    /// -3 dB corner relative to the response at the lowest frequency;
    /// NaN if the response never drops 3 dB within the sweep.
    [[nodiscard]] double corner_frequency(NodeId node) const;

    void append(double f, std::vector<std::complex<double>> x);

private:
    std::vector<double> freq_;
    std::vector<std::vector<std::complex<double>>> states_;
};

/// Run an AC sweep over logarithmically spaced frequencies
/// [f_start, f_stop] with `points_per_decade` resolution, under `ctx`
/// (bound as the thread's ambient context for the duration). The
/// operating point is solved internally to the tolerances `opts`
/// (optionally seeded by `dc_guess`), and `opts.gmin` shunts the
/// linearization.
AcResult solve_ac(Circuit& circuit, const SimContext& ctx,
                  const SolverOptions& opts, const AcStimulus& stimulus,
                  double f_start, double f_stop,
                  std::size_t points_per_decade = 10,
                  const la::Vector* dc_guess = nullptr);

} // namespace tfetsram::spice
