#include "spice/solver_select.hpp"

#include <cstring>

namespace tfetsram::spice {

SolverMode parse_solver_mode(const char* text) {
    if (text == nullptr)
        return SolverMode::kAuto;
    if (std::strcmp(text, "dense") == 0)
        return SolverMode::kDense;
    if (std::strcmp(text, "sparse") == 0)
        return SolverMode::kSparse;
    return SolverMode::kAuto;
}

SolverKind apply_solver_mode(SolverMode mode, std::size_t num_unknowns) {
    switch (mode) {
    case SolverMode::kDense: return SolverKind::kDense;
    case SolverMode::kSparse: return SolverKind::kSparse;
    case SolverMode::kAuto: break;
    }
    return num_unknowns >= kSparseAutoThreshold ? SolverKind::kSparse
                                                : SolverKind::kDense;
}

} // namespace tfetsram::spice
