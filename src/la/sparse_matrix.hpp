#pragma once
// Sparse matrix for array-scale MNA systems. The lifecycle mirrors how the
// circuit solver uses it: a *pattern* phase registers every position a
// device stamp can ever touch (triplets, duplicates collapse), a one-shot
// finalize() compresses them into CSR, writers resolve each position to its
// value index once (slot_of), and the *numeric* phase then runs per Newton
// iterate — set_zero() plus indexed adds into value_data(), with no
// allocation, no search and no pattern changes. The dense Matrix in
// la/matrix.hpp remains the kernel of choice below ~64 unknowns (single
// cells); this type is what makes rows x cols arrays tractable (see
// docs/SOLVER.md).

#include <cstddef>
#include <utility>
#include <vector>

#include "la/matrix.hpp"

namespace tfetsram::la {

/// Compressed-sparse-row matrix of doubles with a frozen pattern.
class SparseMatrix {
public:
    SparseMatrix() = default;
    SparseMatrix(std::size_t rows, std::size_t cols) { reset(rows, cols); }

    /// Drop pattern and values; back to the pattern-building phase.
    void reset(std::size_t rows, std::size_t cols);

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t cols() const { return cols_; }

    /// Stored entries. Only meaningful after finalize_pattern().
    [[nodiscard]] std::size_t nnz() const { return col_idx_.size(); }

    /// Register position (r, c) in the pattern (pattern phase only).
    /// Duplicate registrations collapse into one stored entry.
    void reserve_entry(std::size_t r, std::size_t c);

    /// Pre-size the raw triplet store for `count` reserve_entry calls
    /// (pattern phase only; purely an allocation hint).
    void reserve_triplets(std::size_t count) { triplets_.reserve(count); }

    /// Compress the registered triplets into CSR (sorted, deduplicated)
    /// and zero all values. Idempotent only via reset().
    void finalize_pattern();

    [[nodiscard]] bool finalized() const { return finalized_; }

    /// Zero every stored value; the pattern is untouched.
    void set_zero();

    /// Value-array index of stored entry (r, c); the entry must be in the
    /// pattern (a contract violation otherwise). The slot stays valid until
    /// the next finalize_pattern(). Repeated writers (spice's compiled
    /// assembly) resolve each position once and then write through
    /// value_data()[slot].
    [[nodiscard]] std::size_t slot_of(std::size_t r, std::size_t c) const;

    /// Mutable value array, nnz() entries (finalized only). Writes through
    /// it are unchecked: indices must come from slot_of.
    [[nodiscard]] double* value_data() {
        TFET_EXPECTS(finalized_);
        return val_.data();
    }

    /// y = A * x.
    [[nodiscard]] Vector multiply(const Vector& x) const;

    /// Dense copy (tests and diagnostics; O(rows*cols) storage).
    [[nodiscard]] Matrix to_dense() const;

    /// Finalized sparse view of a dense matrix: one entry per nonzero.
    [[nodiscard]] static SparseMatrix from_dense(const Matrix& m);

    // Raw CSR views for kernels (SparseLu, residual evaluation).
    [[nodiscard]] const std::vector<std::size_t>& row_ptr() const {
        return row_ptr_;
    }
    [[nodiscard]] const std::vector<std::size_t>& col_idx() const {
        return col_idx_;
    }
    [[nodiscard]] const std::vector<double>& values() const { return val_; }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    bool finalized_ = false;
    std::vector<std::pair<std::size_t, std::size_t>> triplets_;
    std::vector<std::size_t> row_ptr_; ///< size rows_+1 once finalized
    std::vector<std::size_t> col_idx_; ///< sorted within each row
    std::vector<double> val_;
};

} // namespace tfetsram::la
