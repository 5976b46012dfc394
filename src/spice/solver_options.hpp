#pragma once
// Shared numerical knobs for the DC and transient engines.

#include <cstddef>

#include "spice/device.hpp"

namespace tfetsram::spice {

struct SolverOptions {
    // --- Newton-Raphson ---
    double vntol = 1e-6;   ///< absolute node-voltage tolerance [V]
    double reltol = 1e-3;  ///< relative tolerance
    double itol = 1e-9;    ///< absolute branch-current tolerance [A]
    double gmin = 1e-12;   ///< baseline convergence conductance [S]
    int max_nr_iterations = 200;
    double dv_limit = 0.4; ///< max Newton update magnitude per iteration [V]

    // --- transient ---
    double dt_initial = 1e-13; ///< first step size [s]
    double dt_min = 1e-17;     ///< below this a step failure is fatal [s]
    double dt_max = 1e-10;     ///< upper step bound [s]
    double lte_reltol = 5e-3;  ///< local-truncation-error relative tolerance
    double lte_abstol = 5e-5;  ///< local-truncation-error absolute tol [V]
    Integrator integrator = Integrator::kTrapezoidal;
    std::size_t max_steps = 4'000'000; ///< runaway guard

    friend bool operator==(const SolverOptions&,
                           const SolverOptions&) = default;
};

/// dv_limit [V] of the basin-crawl retry. A bistable circuit's DC solve
/// from a guess that forces its stored state can wander out of that basin
/// (or fail); the cell, array and mixed-level engines then re-solve from
/// the same guess with the caller's options and this update limit, whose
/// small steps stay inside the basin.
inline constexpr double kCrawlDvLimit = 0.05;

} // namespace tfetsram::spice
