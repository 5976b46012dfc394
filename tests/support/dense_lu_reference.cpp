#include "dense_lu_reference.hpp"

#include <cmath>
#include <numeric>
#include <utility>

namespace testing_support {

using tfetsram::la::Matrix;
using tfetsram::la::Vector;

std::size_t reference_eliminate(Matrix& lu, std::vector<std::size_t>& perm,
                                double pivot_tol) {
    const std::size_t n = lu.rows();
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), 0);

    for (std::size_t k = 0; k < n; ++k) {
        std::size_t pivot_row = k;
        double pivot_mag = std::fabs(lu(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            const double mag = std::fabs(lu(r, k));
            if (mag > pivot_mag) {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if (pivot_mag < pivot_tol)
            return k;
        if (pivot_row != k) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(lu(k, c), lu(pivot_row, c));
            std::swap(perm[k], perm[pivot_row]);
        }
        const double inv_pivot = 1.0 / lu(k, k);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = lu(r, k) * inv_pivot;
            lu(r, k) = factor;
            if (factor == 0.0)
                continue;
            for (std::size_t c = k + 1; c < n; ++c)
                lu(r, c) -= factor * lu(k, c);
        }
    }
    return n;
}

void reference_solve_into(const Matrix& lu,
                          const std::vector<std::size_t>& perm,
                          const Vector& b, Vector& x) {
    const std::size_t n = lu.rows();
    x.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        double acc = b[perm[r]];
        for (std::size_t c = 0; c < r; ++c)
            acc -= lu(r, c) * x[c];
        x[r] = acc;
    }
    for (std::size_t i = n; i-- > 0;) {
        double acc = x[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= lu(i, c) * x[c];
        x[i] = acc / lu(i, i);
    }
}

} // namespace testing_support
