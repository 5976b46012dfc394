// Unit tests for the linear algebra kernels under the MNA solver: the
// dense Matrix/LuFactorization pair and the sparse SparseMatrix/SparseLu
// pair (pattern lifecycle, orderings, and factorization edge cases; the
// sparse-vs-dense behavioural comparison lives in test_sparse_diff.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/sparse_lu.hpp"
#include "la/sparse_matrix.hpp"
#include "support/minimum_degree.hpp"
#include "util/rng.hpp"

namespace tfetsram::la {
namespace {

/// Accumulate v into stored entry (r, c), the way compiled assembly
/// writes: resolve the slot, then add through the value array.
void add(SparseMatrix& m, std::size_t r, std::size_t c, double v) {
    m.value_data()[m.slot_of(r, c)] += v;
}

TEST(Matrix, IdentityAndMultiply) {
    const Matrix id = Matrix::identity(3);
    const Vector x = {1.0, 2.0, 3.0};
    const Vector y = id.multiply(x);
    EXPECT_EQ(y, x);
}

TEST(Matrix, SetZero) {
    Matrix m(2, 2, 5.0);
    m.set_zero();
    EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
}

TEST(Matrix, BoundsChecked) {
    Matrix m(2, 2);
    EXPECT_THROW(m(2, 0), contract_violation);
}

TEST(Matrix, Norms) {
    const Vector v = {3.0, -4.0};
    EXPECT_DOUBLE_EQ(norm2(v), 5.0);
    EXPECT_DOUBLE_EQ(norm_inf(v), 4.0);
}

TEST(Lu, Solves2x2) {
    Matrix a(2, 2);
    a(0, 0) = 2.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    const auto x = solve_linear(a, {5.0, 10.0});
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 1.0, 1e-12);
    EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
    // Zero on the diagonal forces a row swap.
    Matrix a(2, 2);
    a(0, 0) = 0.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 0.0;
    const auto x = solve_linear(a, {2.0, 3.0});
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 3.0, 1e-12);
    EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 4.0;
    EXPECT_FALSE(solve_linear(a, {1.0, 2.0}).has_value());
}

TEST(Lu, FactorReusableAcrossRhs) {
    Matrix a(2, 2);
    a(0, 0) = 4.0;
    a(0, 1) = 1.0;
    a(1, 0) = 1.0;
    a(1, 1) = 3.0;
    const auto lu = LuFactorization::factor(a);
    ASSERT_TRUE(lu.has_value());
    const Vector x1 = lu->solve({5.0, 4.0});
    const Vector x2 = lu->solve({9.0, 7.0});
    const Vector y1 = a.multiply(x1);
    const Vector y2 = a.multiply(x2);
    EXPECT_NEAR(y1[0], 5.0, 1e-12);
    EXPECT_NEAR(y1[1], 4.0, 1e-12);
    EXPECT_NEAR(y2[0], 9.0, 1e-12);
    EXPECT_NEAR(y2[1], 7.0, 1e-12);
}

class LuRandomSystems : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomSystems, ResidualSmall) {
    const int n = GetParam();
    Rng rng(static_cast<std::uint64_t>(n) * 977 + 5);
    Matrix a(n, n);
    Vector b(n);
    for (int r = 0; r < n; ++r) {
        b[r] = rng.uniform(-1.0, 1.0);
        for (int c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
        a(r, r) += 4.0; // diagonally dominant => nonsingular
    }
    const auto x = solve_linear(a, b);
    ASSERT_TRUE(x.has_value());
    const Vector res = subtract(a.multiply(*x), b);
    EXPECT_LT(norm_inf(res), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSystems,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Lu, PivotSpreadFinite) {
    Matrix a = Matrix::identity(3);
    a(2, 2) = 1e-6;
    const auto lu = LuFactorization::factor(a);
    ASSERT_TRUE(lu.has_value());
    EXPECT_NEAR(lu->pivot_spread_log10(), 6.0, 1e-9);
}

// ------------------------------------------------------------ SparseMatrix

TEST(SparseMatrix, DuplicateRegistrationsCollapseAndAddsAccumulate) {
    SparseMatrix m(2, 2);
    m.reserve_entry(0, 0);
    m.reserve_entry(0, 0); // duplicate collapses into one stored entry
    m.reserve_entry(0, 1);
    m.reserve_entry(1, 1);
    m.finalize_pattern();
    EXPECT_EQ(m.nnz(), 3u);

    add(m, 0, 0, 2.0);
    add(m, 0, 0, 3.0); // accumulation, SPICE-stamp style
    add(m, 0, 1, -1.0);
    const Matrix d = m.to_dense();
    EXPECT_DOUBLE_EQ(d(0, 0), 5.0);
    EXPECT_DOUBLE_EQ(d(0, 1), -1.0);
    EXPECT_DOUBLE_EQ(d(1, 1), 0.0); // registered but never stamped
    EXPECT_DOUBLE_EQ(d(1, 0), 0.0); // outside the pattern reads 0
}

TEST(SparseMatrix, AddOutsidePatternIsContractViolation) {
    SparseMatrix m(2, 2);
    m.reserve_entry(0, 0);
    m.finalize_pattern();
    EXPECT_THROW((void)m.slot_of(1, 1), contract_violation);
}

TEST(SparseMatrix, CsrRoundTripsThroughDense) {
    Rng rng(99);
    Matrix a(6, 6);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            if (rng.uniform(0.0, 1.0) < 0.4)
                a(r, c) = rng.uniform(-2.0, 2.0);
    const SparseMatrix s = SparseMatrix::from_dense(a);
    const Matrix back = s.to_dense();
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            EXPECT_EQ(back(r, c), a(r, c)) << r << "," << c;

    // CSR invariants: monotone row_ptr, strictly sorted columns per row.
    const auto& rp = s.row_ptr();
    const auto& ci = s.col_idx();
    ASSERT_EQ(rp.size(), 7u);
    EXPECT_EQ(rp.back(), s.nnz());
    for (std::size_t r = 0; r < 6; ++r) {
        EXPECT_LE(rp[r], rp[r + 1]);
        for (std::size_t k = rp[r] + 1; k < rp[r + 1]; ++k)
            EXPECT_LT(ci[k - 1], ci[k]);
    }
}

TEST(SparseMatrix, MultiplyMatchesDense) {
    Rng rng(5);
    Matrix a(5, 5);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            if ((r + c) % 2 == 0)
                a(r, c) = rng.uniform(-1.0, 1.0);
    const SparseMatrix s = SparseMatrix::from_dense(a);
    Vector x(5);
    for (auto& v : x)
        v = rng.uniform(-1.0, 1.0);
    const Vector yd = a.multiply(x);
    const Vector ys = s.multiply(x);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_NEAR(ys[i], yd[i], 1e-14);
}

TEST(SparseMatrix, EmptyAndOneByOne) {
    SparseMatrix empty(0, 0);
    empty.finalize_pattern();
    EXPECT_EQ(empty.nnz(), 0u);

    SparseMatrix one(1, 1);
    one.reserve_entry(0, 0);
    one.finalize_pattern();
    add(one, 0, 0, 3.5);
    EXPECT_DOUBLE_EQ(one.values()[0], 3.5);
    SparseLu lu;
    lu.analyze(one);
    ASSERT_TRUE(lu.refactor(one));
    const Vector x = lu.solve({7.0});
    EXPECT_NEAR(x[0], 2.0, 1e-15);
}

TEST(SparseMatrix, ResetReturnsToPatternPhase) {
    SparseMatrix m(2, 2);
    m.reserve_entry(0, 0);
    m.finalize_pattern();
    EXPECT_TRUE(m.finalized());
    m.reset(3, 3);
    EXPECT_FALSE(m.finalized());
    m.reserve_entry(2, 2);
    m.finalize_pattern();
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.nnz(), 1u);
}

// ---------------------------------------------------------------- ordering

TEST(MinimumDegree, ProducesAValidPermutation) {
    Rng rng(31);
    Matrix a(12, 12);
    for (std::size_t r = 0; r < 12; ++r) {
        a(r, r) = 1.0;
        for (std::size_t c = 0; c < 12; ++c)
            if (rng.uniform(0.0, 1.0) < 0.2)
                a(r, c) = 1.0;
    }
    const SparseMatrix s = SparseMatrix::from_dense(a);
    const std::vector<std::size_t> q = testing_support::minimum_degree_order(s);
    ASSERT_EQ(q.size(), 12u);
    std::vector<std::size_t> sorted = q;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(sorted[i], i) << "not a permutation";
}

TEST(MinimumDegree, ArrowMatrixEliminatesDenseColumnLast) {
    // Arrow matrix: dense first row/column + diagonal. Eliminating column
    // 0 first would fill the whole matrix; minimum degree must defer it
    // behind the degree-1 columns, keeping the factor fill-free.
    const std::size_t n = 10;
    SparseMatrix s(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        s.reserve_entry(i, i);
        s.reserve_entry(0, i);
        s.reserve_entry(i, 0);
    }
    s.finalize_pattern();
    const std::vector<std::size_t> q = testing_support::minimum_degree_order(s);
    // Once only the hub and a single spoke remain they are both degree 1,
    // so the hub may come in either of the final two slots — but never
    // earlier, where eliminating it would clique the remaining spokes.
    const auto hub = std::find(q.begin(), q.end(), std::size_t{0});
    ASSERT_NE(hub, q.end());
    EXPECT_GE(static_cast<std::size_t>(hub - q.begin()), n - 2)
        << "hub column eliminated while multiple spokes remained";

    // And the factorization of the well-conditioned arrow stays fill-free:
    // lu_nnz equals the pattern nnz.
    s.set_zero();
    for (std::size_t i = 0; i < n; ++i) {
        add(s, i, i, 4.0);
        if (i > 0) {
            add(s, 0, i, 1.0);
            add(s, i, 0, 1.0);
        } else {
            add(s, 0, 0, 1.0); // total 5 on the hub diagonal
        }
    }
    SparseLu lu;
    lu.analyze(s);
    ASSERT_TRUE(lu.refactor(s));
    EXPECT_EQ(lu.lu_nnz(), s.nnz());
}

namespace {

/// 5-point Laplacian pattern and values on a k x k grid — the canonical
/// grid-like pattern the array MNA systems resemble.
SparseMatrix grid_laplacian(std::size_t k) {
    const std::size_t n = k * k;
    SparseMatrix s(n, n);
    const auto id = [k](std::size_t i, std::size_t j) { return i * k + j; };
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j) {
            s.reserve_entry(id(i, j), id(i, j));
            if (i + 1 < k) {
                s.reserve_entry(id(i, j), id(i + 1, j));
                s.reserve_entry(id(i + 1, j), id(i, j));
            }
            if (j + 1 < k) {
                s.reserve_entry(id(i, j), id(i, j + 1));
                s.reserve_entry(id(i, j + 1), id(i, j));
            }
        }
    s.finalize_pattern();
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j) {
            add(s, id(i, j), id(i, j), 4.0);
            if (i + 1 < k) {
                add(s, id(i, j), id(i + 1, j), -1.0);
                add(s, id(i + 1, j), id(i, j), -1.0);
            }
            if (j + 1 < k) {
                add(s, id(i, j), id(i, j + 1), -1.0);
                add(s, id(i, j + 1), id(i, j), -1.0);
            }
        }
    return s;
}

} // namespace

TEST(Amd, ProducesAValidPermutation) {
    Rng rng(31);
    Matrix a(12, 12);
    for (std::size_t r = 0; r < 12; ++r) {
        a(r, r) = 1.0;
        for (std::size_t c = 0; c < 12; ++c)
            if (rng.uniform(0.0, 1.0) < 0.2)
                a(r, c) = 1.0;
    }
    const SparseMatrix s = SparseMatrix::from_dense(a);
    const std::vector<std::size_t> q = amd_order(s);
    ASSERT_EQ(q.size(), 12u);
    std::vector<std::size_t> sorted = q;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_EQ(sorted[i], i) << "not a permutation";
}

TEST(Amd, DeterministicAcrossRepeatsAndRebuilds) {
    // Every AMD decision is index-based: the same pattern must produce
    // the same order on repeated calls and on an independently rebuilt
    // copy of the pattern.
    const SparseMatrix s = grid_laplacian(7);
    const std::vector<std::size_t> q1 = amd_order(s);
    const std::vector<std::size_t> q2 = amd_order(s);
    EXPECT_EQ(q1, q2);
    const SparseMatrix rebuilt = grid_laplacian(7);
    EXPECT_EQ(amd_order(rebuilt), q1);
}

TEST(Amd, ArrowMatrixEliminatesDenseColumnLast) {
    // Same property the greedy ordering guarantees: the hub of an arrow
    // matrix must not be eliminated while multiple spokes remain, or the
    // factor cliques the remaining spokes.
    const std::size_t n = 10;
    SparseMatrix s(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        s.reserve_entry(i, i);
        s.reserve_entry(0, i);
        s.reserve_entry(i, 0);
    }
    s.finalize_pattern();
    const std::vector<std::size_t> q = amd_order(s);
    const auto hub = std::find(q.begin(), q.end(), std::size_t{0});
    ASSERT_NE(hub, q.end());
    EXPECT_GE(static_cast<std::size_t>(hub - q.begin()), n - 2)
        << "hub column eliminated while multiple spokes remained";

    for (std::size_t i = 0; i < n; ++i) {
        add(s, i, i, 4.0);
        if (i > 0) {
            add(s, 0, i, 1.0);
            add(s, i, 0, 1.0);
        } else {
            add(s, 0, 0, 1.0);
        }
    }
    SparseLu lu;
    lu.analyze(s); // default ordering is AMD
    ASSERT_TRUE(lu.refactor(s));
    EXPECT_EQ(lu.lu_nnz(), s.nnz()) << "arrow factor should be fill-free";
}

TEST(Amd, FillCompetitiveWithGreedyOnGridPattern) {
    // On the grid-like patterns arrays produce, AMD's approximation must
    // land within a few percent of the exact greedy scan — and both must
    // clearly beat no ordering at all.
    const SparseMatrix s = grid_laplacian(9);
    SparseLu amd, greedy, natural;
    amd.analyze(s); // default ordering is AMD
    greedy.analyze(s, testing_support::minimum_degree_order(s));
    std::vector<std::size_t> identity(s.rows());
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    natural.analyze(s, std::move(identity));
    ASSERT_TRUE(amd.refactor(s));
    ASSERT_TRUE(greedy.refactor(s));
    ASSERT_TRUE(natural.refactor(s));
    EXPECT_LE(amd.lu_nnz(), greedy.lu_nnz() * 105 / 100);
    EXPECT_LT(amd.lu_nnz(), natural.lu_nnz());
    EXPECT_GE(amd.lu_nnz(), s.nnz());
}

// ------------------------------------------------- static-pivot fast path

TEST(SparseLuStaticPivot, SecondRefactorReusesThePivotSequence) {
    SparseMatrix s = grid_laplacian(5);
    SparseLu lu;
    lu.analyze(s);
    ASSERT_TRUE(lu.refactor(s));
    EXPECT_FALSE(lu.last_refactor().static_hit)
        << "first refactor has no sequence to reuse";
    ASSERT_TRUE(lu.refactor(s));
    EXPECT_TRUE(lu.last_refactor().static_hit);
    EXPECT_EQ(lu.last_refactor().fallbacks, 0u);
}

TEST(SparseLuStaticPivot, DecayedPivotFallsBackAndStaysAccurate) {
    // Pin the elimination order so the column whose diagonal decays is
    // eliminated first: the reused pivot drops to 1e-9 against a column
    // magnitude of 1, far below the static floor, so the sweep must
    // abandon the reuse and a fresh pivot search must take over.
    SparseMatrix s(2, 2);
    s.reserve_entry(0, 0);
    s.reserve_entry(0, 1);
    s.reserve_entry(1, 0);
    s.reserve_entry(1, 1);
    s.finalize_pattern();
    add(s, 0, 0, 4.0);
    add(s, 0, 1, 1.0);
    add(s, 1, 0, 1.0);
    add(s, 1, 1, 4.0);
    SparseLu lu;
    lu.analyze(s, {0, 1});
    ASSERT_TRUE(lu.refactor(s));

    s.set_zero();
    add(s, 0, 0, 1e-9);
    add(s, 0, 1, 1.0);
    add(s, 1, 0, 1.0);
    add(s, 1, 1, 4.0);
    ASSERT_TRUE(lu.refactor(s));
    EXPECT_FALSE(lu.last_refactor().static_hit);
    EXPECT_GE(lu.last_refactor().fallbacks, 1u);
    const Vector x = lu.solve({1.0, 2.0});
    // Exact solution of [[1e-9, 1], [1, 4]] x = [1, 2].
    const double x0 = (4.0 - 2.0) / (4e-9 - 1.0);
    const double x1 = (1.0 - 1e-9 * x0);
    EXPECT_NEAR(x[0], x0, 1e-9);
    EXPECT_NEAR(x[1], x1, 1e-9);
}

TEST(SparseLuGrowth, DiagonalPreferenceBlowupRetriesWithFullPivoting) {
    // Column diagonals sit just inside the diagonal-preference window
    // (|diag| = 1 vs column max 9.99), so threshold pivoting keeps them
    // and the dense last column amplifies by ~11x per elimination step:
    // growth overflows the bound and the factorization must be redone
    // with pure partial pivoting before the solve is trusted.
    const std::size_t n = 14;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a(i, i) = 1.0;
        a(i, n - 1) = 1.0;
        for (std::size_t r = i + 1; r < n; ++r)
            a(r, i) = -9.99;
    }
    const SparseMatrix s = SparseMatrix::from_dense(a);
    SparseLu lu;
    std::vector<std::size_t> identity(n);
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    lu.analyze(s, std::move(identity));
    ASSERT_TRUE(lu.refactor(s));
    EXPECT_GE(lu.last_refactor().fallbacks, 1u)
        << "growth monitor should have rejected the first factor";
    EXPECT_LT(lu.last_refactor().growth, 1e10)
        << "accepted factor must respect the growth bound";

    Vector expect(n);
    for (std::size_t i = 0; i < n; ++i)
        expect[i] = 0.5 + 0.1 * static_cast<double>(i);
    const Vector x = lu.solve(s.multiply(expect));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], expect[i], 1e-9) << "component " << i;
}

// ---------------------------------------------------------------- SparseLu

TEST(SparseLu, DensePatternMatchesDenseKernel) {
    // A fully dense pattern is the degenerate case: the sparse kernel must
    // still agree with the dense one (no shortcuts that assume sparsity).
    Rng rng(17);
    const std::size_t n = 9;
    Matrix a(n, n);
    Vector b(n);
    for (std::size_t r = 0; r < n; ++r) {
        b[r] = rng.uniform(-1.0, 1.0);
        for (std::size_t c = 0; c < n; ++c)
            a(r, c) = rng.uniform(-1.0, 1.0);
        a(r, r) += 4.0;
    }
    const auto xd = solve_linear(a, b);
    ASSERT_TRUE(xd.has_value());
    const SparseMatrix s = SparseMatrix::from_dense(a);
    EXPECT_EQ(s.nnz(), n * n);
    SparseLu lu;
    lu.analyze(s);
    ASSERT_TRUE(lu.refactor(s));
    const Vector xs = lu.solve(b);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(xs[i], (*xd)[i], 1e-11);
}

TEST(SparseLu, ZeroDiagonalRequiresPivoting) {
    // The MNA voltage-source shape: structurally zero diagonal on the
    // constraint row. Solvable only with row pivoting.
    SparseMatrix s(2, 2);
    s.reserve_entry(0, 1);
    s.reserve_entry(1, 0);
    s.finalize_pattern();
    add(s, 0, 1, 1.0);
    add(s, 1, 0, 1.0);
    SparseLu lu;
    lu.analyze(s);
    ASSERT_TRUE(lu.refactor(s));
    const Vector x = lu.solve({2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-15);
    EXPECT_NEAR(x[1], 2.0, 1e-15);
}

TEST(SparseLu, PivotSpreadMatchesDenseDiagnostic) {
    Matrix a = Matrix::identity(3);
    a(2, 2) = 1e-6;
    const SparseMatrix s = SparseMatrix::from_dense(a);
    SparseLu lu;
    lu.analyze(s);
    ASSERT_TRUE(lu.refactor(s));
    EXPECT_NEAR(lu.pivot_spread_log10(), 6.0, 1e-9);
    EXPECT_GE(lu.fill_ratio(), 1.0 - 1e-12);
}

TEST(SparseLu, RecoversAfterSingularRefactor) {
    // A singular refactor must not poison the analysis: restoring good
    // values and refactoring again succeeds (the Newton fallback chain
    // retries with different gmin after a failed factorization).
    SparseMatrix s(2, 2);
    s.reserve_entry(0, 0);
    s.reserve_entry(1, 1);
    s.finalize_pattern();
    SparseLu lu;
    lu.analyze(s);
    EXPECT_FALSE(lu.refactor(s)); // all-zero values: singular

    add(s, 0, 0, 2.0);
    add(s, 1, 1, 4.0);
    ASSERT_TRUE(lu.refactor(s));
    const Vector x = lu.solve({2.0, 8.0});
    EXPECT_NEAR(x[0], 1.0, 1e-15);
    EXPECT_NEAR(x[1], 2.0, 1e-15);
}

} // namespace
} // namespace tfetsram::la
