#pragma once
// Dense matrix/vector types for the MNA solver. Single-cell circuits are
// small (~10 unknowns), where this cache-friendly dense representation
// beats any sparse scheme; array-scale systems switch to the CSR kernel in
// la/sparse_matrix.hpp + la/sparse_lu.hpp above kSparseAutoThreshold
// unknowns (selection in spice/solver_select.hpp, trade documented in
// docs/SOLVER.md).

#include <cstddef>
#include <vector>

#include "util/contracts.hpp"

namespace tfetsram::la {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t cols() const { return cols_; }

    double& operator()(std::size_t r, std::size_t c) {
        TFET_EXPECTS(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const {
        TFET_EXPECTS(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /// Row-major storage, rows() * cols() entries: row r starts at
    /// data() + r * cols(). For kernels that check their dimensions once at
    /// entry instead of per element (la/lu.cpp).
    [[nodiscard]] double* data() { return data_.data(); }
    [[nodiscard]] const double* data() const { return data_.data(); }

    /// Reset all entries to zero without reallocating.
    void set_zero();

    /// y = A * x
    [[nodiscard]] Vector multiply(const Vector& x) const;

    /// Square identity matrix.
    static Matrix identity(std::size_t n);

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// Euclidean norm.
double norm2(const Vector& v);

/// Infinity norm.
double norm_inf(const Vector& v);

/// r = a - b (sizes must match).
Vector subtract(const Vector& a, const Vector& b);

} // namespace tfetsram::la
