#include "la/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace tfetsram::la {

bool LuFactorization::eliminate(double pivot_tol) {
    const std::size_t n = lu_.rows();
    // The one bounds check: lu_ is an n x n row-major store, and every row
    // and column index below is < n, so each element access is in bounds
    // (docs/SOLVER.md, "The dense kernel"; tests/test_kernel_diff.cpp holds
    // the results bitwise to a per-element-checked reference).
    TFET_EXPECTS(lu_.cols() == n);
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), 0);
    double* const a = lu_.data();

    for (std::size_t k = 0; k < n; ++k) {
        double* const row_k = a + k * n;
        // Partial pivoting: pick the largest magnitude entry in column k.
        std::size_t pivot_row = k;
        double pivot_mag = std::fabs(row_k[k]);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double mag = std::fabs(a[r * n + k]);
            if (mag > pivot_mag) {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if (pivot_mag < pivot_tol)
            return false;
        if (pivot_row != k) {
            std::swap_ranges(row_k, row_k + n, a + pivot_row * n);
            std::swap(perm_[k], perm_[pivot_row]);
        }
        const double inv_pivot = 1.0 / row_k[k];
        for (std::size_t r = k + 1; r < n; ++r) {
            double* const row_r = a + r * n;
            const double factor = row_r[k] * inv_pivot;
            row_r[k] = factor;
            if (factor == 0.0)
                continue;
            for (std::size_t c = k + 1; c < n; ++c)
                row_r[c] -= factor * row_k[c];
        }
    }
    return true;
}

std::optional<LuFactorization> LuFactorization::factor(Matrix a,
                                                       double pivot_tol) {
    TFET_EXPECTS(a.rows() == a.cols());
    LuFactorization f;
    f.lu_ = std::move(a);
    if (!f.eliminate(pivot_tol))
        return std::nullopt;
    return f;
}

bool LuFactorization::factor_in_place(const Matrix& a, double pivot_tol) {
    TFET_EXPECTS(a.rows() == a.cols());
    lu_ = a; // copy-assign reuses the existing storage when sizes match
    return eliminate(pivot_tol);
}

void LuFactorization::solve_into(const Vector& b, Vector& x) const {
    const std::size_t n = lu_.rows();
    // Entry checks imply every bound below: an n x n factor, a permutation
    // of 0..n-1 in perm_ (eliminate builds it from iota by swaps), and n
    // right-hand-side entries.
    TFET_EXPECTS(lu_.cols() == n && perm_.size() == n);
    TFET_EXPECTS(b.size() == n);
    TFET_EXPECTS(&b != &x);
    x.resize(n);
    const double* const a = lu_.data();
    double* const y = x.data();

    // Forward substitution on the permuted RHS (L has unit diagonal),
    // accumulating y directly in x.
    for (std::size_t r = 0; r < n; ++r) {
        const double* const row = a + r * n;
        double acc = b[perm_[r]];
        for (std::size_t c = 0; c < r; ++c)
            acc -= row[c] * y[c];
        y[r] = acc;
    }
    // Back substitution in place.
    for (std::size_t i = n; i-- > 0;) {
        const double* const row = a + i * n;
        double acc = y[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= row[c] * y[c];
        y[i] = acc / row[i];
    }
}

Vector LuFactorization::solve(const Vector& b) const {
    Vector x;
    solve_into(b, x);
    return x;
}

double LuFactorization::pivot_spread_log10() const {
    const std::size_t n = lu_.rows();
    double lo = std::fabs(lu_(0, 0));
    double hi = lo;
    for (std::size_t i = 1; i < n; ++i) {
        const double p = std::fabs(lu_(i, i));
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    if (lo == 0.0)
        return std::numeric_limits<double>::infinity();
    return std::log10(hi / lo);
}

std::optional<Vector> solve_linear(Matrix a, const Vector& b) {
    auto lu = LuFactorization::factor(std::move(a));
    if (!lu)
        return std::nullopt;
    return lu->solve(b);
}

} // namespace tfetsram::la
