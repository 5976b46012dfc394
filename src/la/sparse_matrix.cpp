#include "la/sparse_matrix.hpp"

#include <algorithm>

namespace tfetsram::la {

void SparseMatrix::reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    finalized_ = false;
    triplets_.clear();
    row_ptr_.clear();
    col_idx_.clear();
    val_.clear();
}

void SparseMatrix::reserve_entry(std::size_t r, std::size_t c) {
    TFET_EXPECTS(!finalized_);
    TFET_EXPECTS(r < rows_ && c < cols_);
    triplets_.emplace_back(r, c);
}

void SparseMatrix::finalize_pattern() {
    TFET_EXPECTS(!finalized_);
    // Counting sort by row, then sort + dedup each row's short column run.
    // The raw triplet list is heavily duplicated (devices share nodes, and
    // a transistor's stamps overlap), so this O(raw + sum_r k_r log k_r)
    // pass beats a global comparison sort of the full list by a wide margin
    // on array-scale patterns.
    row_ptr_.assign(rows_ + 1, 0);
    for (const auto& t : triplets_)
        ++row_ptr_[t.first + 1];
    for (std::size_t r = 0; r < rows_; ++r)
        row_ptr_[r + 1] += row_ptr_[r];
    col_idx_.resize(triplets_.size());
    std::vector<std::size_t> next(row_ptr_.begin(), row_ptr_.end() - 1);
    for (const auto& t : triplets_)
        col_idx_[next[t.first]++] = t.second;

    // Compact in place: the write cursor never passes the read cursor
    // because earlier rows only shrink.
    std::size_t w = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::size_t b = row_ptr_[r];
        const std::size_t e = row_ptr_[r + 1];
        std::sort(col_idx_.begin() + static_cast<std::ptrdiff_t>(b),
                  col_idx_.begin() + static_cast<std::ptrdiff_t>(e));
        row_ptr_[r] = w;
        for (std::size_t k = b; k < e; ++k)
            if (w == row_ptr_[r] || col_idx_[w - 1] != col_idx_[k])
                col_idx_[w++] = col_idx_[k];
    }
    row_ptr_[rows_] = w;
    col_idx_.resize(w);
    val_.assign(w, 0.0);
    triplets_.clear();
    triplets_.shrink_to_fit();
    finalized_ = true;
}

std::size_t SparseMatrix::slot_of(std::size_t r, std::size_t c) const {
    TFET_EXPECTS(finalized_);
    TFET_EXPECTS(r < rows_ && c < cols_);
    const auto first = col_idx_.begin() +
                       static_cast<std::ptrdiff_t>(row_ptr_[r]);
    const auto last = col_idx_.begin() +
                      static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
    const auto it = std::lower_bound(first, last, c);
    TFET_EXPECTS(it != last && *it == c);
    return static_cast<std::size_t>(it - col_idx_.begin());
}

void SparseMatrix::set_zero() {
    TFET_EXPECTS(finalized_);
    std::fill(val_.begin(), val_.end(), 0.0);
}

Vector SparseMatrix::multiply(const Vector& x) const {
    TFET_EXPECTS(finalized_);
    TFET_EXPECTS(x.size() == cols_);
    Vector y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
            acc += val_[k] * x[col_idx_[k]];
        y[r] = acc;
    }
    return y;
}

Matrix SparseMatrix::to_dense() const {
    TFET_EXPECTS(finalized_);
    Matrix m(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
            m(r, col_idx_[k]) = val_[k];
    return m;
}

SparseMatrix SparseMatrix::from_dense(const Matrix& m) {
    SparseMatrix s(m.rows(), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            if (m(r, c) != 0.0)
                s.reserve_entry(r, c);
    s.finalize_pattern();
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            if (m(r, c) != 0.0)
                s.val_[s.slot_of(r, c)] = m(r, c);
    return s;
}

} // namespace tfetsram::la
