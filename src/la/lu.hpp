#pragma once
// LU factorization with partial pivoting — the linear kernel under every
// Newton iteration of the circuit solver.

#include <optional>

#include "la/matrix.hpp"

namespace tfetsram::la {

/// In-place LU factorization (Doolittle, partial pivoting) of a square
/// matrix, reusable across multiple right-hand sides.
class LuFactorization {
public:
    /// Empty factorization, ready for factor_in_place. Calling solve on it
    /// is a contract violation.
    LuFactorization() = default;

    /// Factor A. Returns std::nullopt if A is numerically singular
    /// (pivot magnitude below the given threshold).
    static std::optional<LuFactorization> factor(Matrix a,
                                                 double pivot_tol = 1e-300);

    /// Re-factor this object from A, reusing the existing storage — the
    /// allocation-free path the Newton inner loop takes (SolveWorkspace).
    /// Returns false if A is numerically singular; the factorization is
    /// then unusable until the next successful factor_in_place.
    bool factor_in_place(const Matrix& a, double pivot_tol = 1e-300);

    /// Solve A x = b for the factored A.
    [[nodiscard]] Vector solve(const Vector& b) const;

    /// Allocation-free solve: writes the solution into `x` (resized as
    /// needed). `x` must not alias `b`.
    void solve_into(const Vector& b, Vector& x) const;

    /// log10 of the ratio of largest to smallest pivot magnitude — a cheap
    /// conditioning indicator the Newton loop uses for diagnostics.
    [[nodiscard]] double pivot_spread_log10() const;

    /// The packed factors (unit-diagonal L below the diagonal, U on and
    /// above it) and the row permutation: perm[k] is the original row now
    /// in row k. After a failed factorization they hold the elimination
    /// up to the failing column.
    [[nodiscard]] const Matrix& factors() const { return lu_; }
    [[nodiscard]] const std::vector<std::size_t>& permutation() const {
        return perm_;
    }

private:
    /// Eliminate lu_ in place with partial pivoting, recording row swaps
    /// in perm_. Returns false on a sub-threshold pivot.
    bool eliminate(double pivot_tol);

    Matrix lu_;
    std::vector<std::size_t> perm_;
};

/// One-shot convenience: solve A x = b. Returns nullopt if singular.
std::optional<Vector> solve_linear(Matrix a, const Vector& b);

} // namespace tfetsram::la
