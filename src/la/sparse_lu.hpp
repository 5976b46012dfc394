#pragma once
// Sparse LU for the MNA Jacobian, split the way the Newton loop needs it:
//
//  * analyze()  — symbolic analysis, once per circuit topology: a
//    fill-reducing approximate-minimum-degree (AMD) column ordering on the
//    symmetrized pattern, a CSC view of the CSR pattern, and workspace
//    allocation.
//  * refactor() — numeric factorization, once per Newton iterate:
//    left-looking (Gilbert–Peierls) elimination with threshold partial
//    pivoting, reusing every buffer from the previous call. After the
//    factor storage has grown to its steady state this is allocation-free,
//    the sparse analogue of LuFactorization::factor_in_place.
//
// Pivoting is threshold partial pivoting with a diagonal preference: the
// structural diagonal entry is kept as the pivot whenever its magnitude is
// within a factor of the column maximum, which preserves the fill the
// fill-reducing ordering planned for; otherwise the largest off-diagonal
// candidate is swapped in, so numerically hard columns (the zero-diagonal
// voltage-source rows of MNA) stay stable. Singularity is reported exactly
// like the dense kernel: a pivot below `pivot_tol` fails the
// factorization, and the caller falls through to the solver's fallback
// strategies.
//
// Two guards make the per-iterate path both fast and safe
// (docs/SOLVER.md):
//
//  * Static-pivot fast path — Newton refactors the same pattern with
//    slowly drifting values, so after one successful pivoted factor the
//    pivot sequence and fill structure are reused verbatim: refactor()
//    skips the depth-first symbolic traversal and the pivot search and
//    runs a branch-free numeric sweep over the stored structure. A pivot
//    that has decayed below a fraction of its column's magnitude, or
//    element growth past a bound, abandons the sweep and falls back to a
//    fresh threshold-pivoted factorization.
//  * Element-growth monitor — every factorization tracks
//    max |reduced entry| / max |A entry|. A threshold-pivoted factor whose
//    growth exceeds a bound is redone with pure partial pivoting (no
//    diagonal preference) before the solve is trusted; the fallback is
//    reported so telemetry can count it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/sparse_matrix.hpp"

namespace tfetsram::la {

class SparseLu {
public:
    SparseLu() = default;

    /// Symbolic analysis of a finalized square pattern with the default
    /// AMD fill-reducing ordering. Resets any prior analysis; refactor()
    /// afterwards requires the same pattern.
    void analyze(const SparseMatrix& a);

    /// Symbolic analysis under an explicit column elimination order (a
    /// permutation of 0..n-1; anything else is a contract violation).
    /// Exposed so tests and experiments can compare orderings through the
    /// real factorization kernel.
    void analyze(const SparseMatrix& a, std::vector<std::size_t> order);

    [[nodiscard]] bool analyzed() const { return analyzed_; }

    /// Numeric refactorization of `a` (same pattern as analyze()).
    /// Returns false if numerically singular (pivot below pivot_tol);
    /// the factorization is then unusable until the next successful
    /// refactor. Uses the static-pivot fast path when the previous pivot
    /// sequence is reusable (see set_static_pivoting / last_refactor).
    bool refactor(const SparseMatrix& a, double pivot_tol = 1e-300);

    /// Solve A x = b for the last refactored A. `x` must not alias `b`.
    void solve_into(const Vector& b, Vector& x) const;
    [[nodiscard]] Vector solve(const Vector& b) const;

    /// Enable/disable the static-pivot fast path (default on). Tests use
    /// the always-pivot mode as the reference the fast path must match.
    void set_static_pivoting(bool enabled) { static_enabled_ = enabled; }

    /// What the last refactor() did: whether it completed on the
    /// static-pivot fast path, how many times it fell back to a stricter
    /// pivoting mode, and the element growth of the accepted factor.
    struct RefactorInfo {
        bool static_hit = false;
        std::uint32_t fallbacks = 0;
        double growth = 0.0; ///< max |reduced entry| / max |A entry|
    };
    [[nodiscard]] const RefactorInfo& last_refactor() const { return last_; }

    /// Wall microseconds the last analyze() spent computing the
    /// fill-reducing ordering (0 for the explicit-order overload). The
    /// solver layer accumulates this into SolverStats.
    [[nodiscard]] std::uint64_t ordering_us() const { return ordering_us_; }

    /// The fill-reducing column elimination order chosen by analyze().
    [[nodiscard]] const std::vector<std::size_t>& column_order() const {
        return q_;
    }

    /// Stored entries of L+U after the last refactor (L's unit diagonal is
    /// implicit and shares the U diagonal position, so this is the nnz of
    /// the filled factor matrix). Comparable against pattern_nnz().
    [[nodiscard]] std::size_t lu_nnz() const {
        return l_row_.size() + u_row_.size() + n_;
    }

    /// nnz of the analyzed pattern.
    [[nodiscard]] std::size_t pattern_nnz() const { return csc_row_.size(); }

    /// lu_nnz / pattern_nnz — the fill-in the ordering could not avoid.
    [[nodiscard]] double fill_ratio() const;

    /// log10 of the ratio of largest to smallest pivot magnitude (same
    /// conditioning diagnostic as the dense kernel).
    [[nodiscard]] double pivot_spread_log10() const;

private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Full Gilbert–Peierls factorization with threshold pivoting at the
    /// given diagonal preference (0 = pure partial pivoting). On success
    /// l_row_ holds original row ids (remapped by the caller) and
    /// `growth` the factor's element growth.
    bool refactor_full(const SparseMatrix& a, double pivot_tol,
                       double diag_preference, double& growth);

    /// Branch-free numeric sweep reusing the previous factor's pivot
    /// sequence and structure. Returns false (leaving the factor dirty —
    /// the caller re-runs refactor_full) when a reused pivot is no longer
    /// acceptable or growth trips the static bound.
    bool refactor_static(const SparseMatrix& a, double pivot_tol,
                         double& growth);

    /// Sort each U column's entries ascending by pivot step so the static
    /// sweep can process them as a dependency-ordered run.
    void sort_u_columns();

    std::size_t n_ = 0;
    bool analyzed_ = false;
    bool factored_ = false;
    bool static_enabled_ = true;
    bool static_ready_ = false; ///< a pivot sequence is stored and reusable
    RefactorInfo last_;
    std::uint64_t ordering_us_ = 0;

    // --- symbolic (set by analyze) ---
    std::vector<std::size_t> q_;       ///< column elimination order
    std::vector<std::size_t> csc_ptr_; ///< CSC pattern: per original column
    std::vector<std::size_t> csc_row_; ///< row index of each CSC entry
    std::vector<std::size_t> csc_val_; ///< CSR value index of each CSC entry

    // --- numeric factors (rebuilt by refactor; capacity reused) ---
    // Compressed-column L (unit diagonal implicit) and U; U's diagonal
    // (the pivots) lives in udiag_. L/U row indices are pivot steps after
    // refactor() completes. Every symbolically reached entry is stored,
    // exact numeric zeros included: the structure must stay valid for the
    // static-pivot sweep under different values of the same pattern.
    std::vector<std::size_t> l_ptr_, l_row_;
    std::vector<double> l_val_;
    std::vector<std::size_t> u_ptr_, u_row_;
    std::vector<double> u_val_;
    std::vector<double> udiag_;
    std::vector<std::size_t> pinv_; ///< original row -> pivot step
    std::vector<std::size_t> p_;    ///< pivot step -> original row

    // --- per-refactor scratch ---
    std::vector<double> work_x_;          ///< dense accumulator
    std::vector<std::size_t> topo_;       ///< DFS post-order of the column
    std::vector<std::size_t> stack_;      ///< DFS node stack
    std::vector<std::size_t> pstack_;     ///< DFS child-position stack
    std::vector<unsigned char> mark_;     ///< DFS visited flags
    std::vector<std::size_t> usort_scratch_; ///< U-column sort permutation
    mutable std::vector<double> work_y_;  ///< solve scratch
};

/// Approximate minimum degree ordering on the symmetrized pattern of `a`:
/// quotient-graph elimination with element absorption and bucketed degree
/// lists (Amestoy/Davis/Duff style, without supervariable compression).
/// Nodes of degree above max(16, 10 sqrt(n)) (an array's shared vdd rail)
/// are left out of the elimination and ordered last, as SuiteSparse AMD
/// does with dense rows. Near-linear on the grid-like MNA patterns SRAM
/// arrays produce, where a greedy minimum-degree scan is quadratic.
/// Deterministic: every decision is index-based, so the order is identical
/// across platforms.
std::vector<std::size_t> amd_order(const SparseMatrix& a);

} // namespace tfetsram::la
