#pragma once
// Linear-kernel selection for the Newton loop: dense LU (the right call for
// single-cell circuits, < ~64 unknowns) versus the sparse kernel (what
// makes rows x cols arrays tractable). Selection is automatic by system
// size unless a SimContext's SimConfig::mode pins a backend;
// TFETSRAM_SOLVER=dense|sparse|auto reaches it through SimConfig::from_env.

#include <cstddef>

namespace tfetsram::spice {

/// Backend actually used for one circuit's solves.
enum class SolverKind { kDense, kSparse };

/// Requested policy (SimConfig::mode, TFETSRAM_SOLVER).
enum class SolverMode { kAuto, kDense, kSparse };

/// Unknown count at and above which kAuto picks the sparse kernel. Below
/// it the dense kernel's cache behaviour wins (see docs/SOLVER.md); a
/// single 6T cell sits near 10 unknowns, an 8x8 array near 200.
inline constexpr std::size_t kSparseAutoThreshold = 64;

/// Parse a TFETSRAM_SOLVER value; nullptr, empty, "auto", and anything
/// unrecognized mean kAuto.
SolverMode parse_solver_mode(const char* text);

/// Apply a policy to a system size (kAuto routes by kSparseAutoThreshold).
SolverKind apply_solver_mode(SolverMode mode, std::size_t num_unknowns);

} // namespace tfetsram::spice
