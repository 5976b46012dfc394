// Differential/property harness for the sparse MNA kernel: the sparse
// path (la::SparseMatrix + la::SparseLu, spice sparse assembly) is held
// against the dense reference on the same inputs.
//
//  * Random well-conditioned systems: sparse and dense solutions agree to
//    tight tolerance across sizes and sparsity levels.
//  * Real MNA systems (a 6T cell, small arrays): the sparse assembly is
//    entry-for-entry *exactly* equal to the dense one — both backends run
//    the identical stamping code in identical order, so every matrix
//    entry accumulates the same addends in the same sequence.
//  * Full-simulation agreement: an SRAM array initialized and operated
//    under each backend produces matching states and read differentials.
//  * Failure parity: singular systems fail identically — both kernels
//    report singular, neither crashes, and the circuit-level solve
//    surfaces the same non-convergence instead of dying.
//  * Counter contracts: exactly one symbolic analysis per circuit
//    topology, one refactorization per Newton iteration, and the nnz
//    gauges report only when sparse work actually happened.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "array/array.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/sparse_lu.hpp"
#include "la/sparse_matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/solver_select.hpp"
#include "spice/stats.hpp"
#include "sram/designs.hpp"
#include "support/minimum_degree.hpp"
#include "util/rng.hpp"

namespace tfetsram {
namespace {

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

array::ArrayConfig proposed_array(std::size_t rows, std::size_t cols) {
    array::ArrayConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.cell = sram::proposed_design(0.8, models()).config;
    cfg.read_assist = sram::Assist::kRaGndLowering;
    return cfg;
}

std::vector<std::vector<bool>> checker(std::size_t rows, std::size_t cols) {
    std::vector<std::vector<bool>> d(rows, std::vector<bool>(cols));
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            d[r][c] = (r + c) % 2 == 0;
    return d;
}

spice::SolverStats metered_since(const spice::SolverStats& before) {
    return spice::solver_stats() - before;
}

/// Context pinned to `mode`; a test binds it with spice::ScopedContext so
/// every solve inside picks its kernel from this context alone.
spice::SimContext mode_context(spice::SolverMode mode) {
    spice::SimConfig cfg;
    cfg.mode = mode;
    return spice::SimContext(std::move(cfg));
}

/// Random square system with ~`density` filled off-diagonals and a
/// dominant diagonal (well-conditioned by construction).
la::Matrix random_system(std::size_t n, double density, Rng& rng) {
    la::Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            if (r == c || rng.uniform(0.0, 1.0) < density)
                a(r, c) = rng.uniform(-1.0, 1.0);
        a(r, r) += 4.0;
    }
    return a;
}

// ------------------------------------------------- random-system parity

class SparseDenseRandom
    : public ::testing::TestWithParam<std::pair<int, double>> {};

TEST_P(SparseDenseRandom, SolutionsAgree) {
    const auto [n_int, density] = GetParam();
    const std::size_t n = static_cast<std::size_t>(n_int);
    Rng rng(static_cast<std::uint64_t>(n) * 1315423911u + 7);
    const la::Matrix a = random_system(n, density, rng);
    la::Vector b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = rng.uniform(-1.0, 1.0);

    la::LuFactorization dense;
    ASSERT_TRUE(dense.factor_in_place(a));
    la::Vector x_dense(n);
    dense.solve_into(b, x_dense);

    const la::SparseMatrix sa = la::SparseMatrix::from_dense(a);
    la::SparseLu slu;
    slu.analyze(sa);
    ASSERT_TRUE(slu.refactor(sa));
    la::Vector x_sparse(n);
    slu.solve_into(b, x_sparse);

    // Both solutions satisfy the same well-conditioned system; they agree
    // to far better than the conditioning bound.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x_sparse[i], x_dense[i],
                    1e-10 * (1.0 + std::fabs(x_dense[i])))
            << "component " << i << " of n=" << n;

    // And the sparse solution genuinely solves the system.
    const la::Vector res = la::subtract(sa.multiply(x_sparse), b);
    EXPECT_LT(la::norm_inf(res), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, SparseDenseRandom,
    ::testing::Values(std::pair<int, double>{1, 1.0},
                      std::pair<int, double>{2, 1.0},
                      std::pair<int, double>{5, 0.6},
                      std::pair<int, double>{13, 0.3},
                      std::pair<int, double>{40, 0.15},
                      std::pair<int, double>{97, 0.08},
                      std::pair<int, double>{160, 0.05}));

TEST(SparseDenseRandom, RepeatedRefactorsMatchAcrossValueChanges) {
    // One symbolic analysis, many numeric refactors with changing values —
    // the Newton-loop usage pattern. Every refactor must agree with a
    // fresh dense factorization of the same values.
    const std::size_t n = 30;
    Rng rng(20260806);
    const la::Matrix a0 = random_system(n, 0.25, rng);
    la::SparseMatrix sa = la::SparseMatrix::from_dense(a0);
    la::SparseLu slu;
    slu.analyze(sa);

    for (int pass = 0; pass < 5; ++pass) {
        // Perturb every stored value without touching the pattern.
        la::Matrix a = sa.to_dense();
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                if (a(r, c) != 0.0)
                    a(r, c) += rng.uniform(-0.1, 0.1);
        sa.set_zero();
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                if (a(r, c) != 0.0)
                    sa.value_data()[sa.slot_of(r, c)] += a(r, c);

        la::Vector b(n);
        for (std::size_t i = 0; i < n; ++i)
            b[i] = rng.uniform(-1.0, 1.0);

        la::LuFactorization dense;
        ASSERT_TRUE(dense.factor_in_place(a));
        la::Vector x_dense(n);
        dense.solve_into(b, x_dense);
        ASSERT_TRUE(slu.refactor(sa));
        la::Vector x_sparse(n);
        slu.solve_into(b, x_sparse);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x_sparse[i], x_dense[i], 1e-9)
                << "pass " << pass << " component " << i;
    }
}

TEST(SparseDenseRandom, StaticPivotPathAgreesWithAlwaysPivotPath) {
    // The static-pivot fast path must be numerically interchangeable with
    // a factorization that re-runs the pivot search every time. Drift the
    // values the way Newton does and hold the two modes against each
    // other on every pass.
    const std::size_t n = 40;
    Rng rng(20260808);
    const la::Matrix a0 = random_system(n, 0.15, rng);
    la::SparseMatrix sa = la::SparseMatrix::from_dense(a0);

    la::SparseLu fast;
    fast.analyze(sa);
    la::SparseLu reference;
    reference.set_static_pivoting(false);
    reference.analyze(sa);

    for (int pass = 0; pass < 6; ++pass) {
        if (pass > 0) {
            la::Matrix a = sa.to_dense();
            sa.set_zero();
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c < n; ++c)
                    if (a(r, c) != 0.0)
                        sa.value_data()[sa.slot_of(r, c)] +=
                            a(r, c) + rng.uniform(-0.1, 0.1);
        }
        ASSERT_TRUE(fast.refactor(sa)) << "pass " << pass;
        ASSERT_TRUE(reference.refactor(sa)) << "pass " << pass;
        EXPECT_FALSE(reference.last_refactor().static_hit);
        if (pass > 0) {
            EXPECT_TRUE(fast.last_refactor().static_hit)
                << "well-conditioned drift should reuse the pivot "
                   "sequence on pass "
                << pass;
        }

        la::Vector b(n);
        for (std::size_t i = 0; i < n; ++i)
            b[i] = rng.uniform(-1.0, 1.0);
        la::Vector x_fast(n), x_ref(n);
        fast.solve_into(b, x_fast);
        reference.solve_into(b, x_ref);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x_fast[i], x_ref[i], 1e-11)
                << "pass " << pass << " component " << i;
    }
}

// ------------------------------------------------- failure parity

TEST(SparseDenseFailure, SingularSystemsFailIdentically) {
    // Row 2 = 2 * row 0: rank deficient. Both kernels must report
    // singular via their return value — no throw, no crash, no NaN-filled
    // "solution".
    la::Matrix a(3, 3);
    a(0, 0) = 1.0;
    a(0, 1) = 2.0;
    a(0, 2) = 3.0;
    a(1, 0) = 4.0;
    a(1, 1) = 5.0;
    a(1, 2) = 6.0;
    a(2, 0) = 2.0;
    a(2, 1) = 4.0;
    a(2, 2) = 6.0;

    la::LuFactorization dense;
    const bool dense_ok = dense.factor_in_place(a);

    const la::SparseMatrix sa = la::SparseMatrix::from_dense(a);
    la::SparseLu slu;
    slu.analyze(sa);
    const bool sparse_ok = slu.refactor(sa);

    EXPECT_FALSE(dense_ok);
    EXPECT_FALSE(sparse_ok);
}

TEST(SparseDenseFailure, ZeroMatrixFailsIdentically) {
    la::Matrix a(4, 4);
    la::LuFactorization dense;
    EXPECT_FALSE(dense.factor_in_place(a));

    la::SparseMatrix sa(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
        sa.reserve_entry(i, i);
    sa.finalize_pattern(); // all-zero values
    la::SparseLu slu;
    slu.analyze(sa);
    EXPECT_FALSE(slu.refactor(sa));
}

TEST(SparseDenseFailure, NearSingularThresholdMatchesDenseKernel) {
    // A pivot at the shared 1e-300 tolerance boundary: both kernels use
    // the same threshold, so they flip from ok to singular together.
    for (const double tiny : {1e-290, 1e-310}) {
        la::Matrix a = la::Matrix::identity(3);
        a(1, 1) = tiny;
        la::LuFactorization dense;
        const bool dense_ok = dense.factor_in_place(a);
        const la::SparseMatrix sa = la::SparseMatrix::from_dense(a);
        la::SparseLu slu;
        slu.analyze(sa);
        const bool sparse_ok = slu.refactor(sa);
        EXPECT_EQ(dense_ok, sparse_ok) << "pivot magnitude " << tiny;
        EXPECT_EQ(dense_ok, tiny > 1e-300);
    }
}

TEST(SparseDenseFailure, SingularCircuitSolveFailsGracefullyBothPaths) {
    // A floating node (no DC path to ground) makes the MNA matrix
    // singular in DC. Both backends must walk the same fallback-strategy
    // chain and return a structured non-convergence, not crash.
    for (const spice::SolverMode mode :
         {spice::SolverMode::kDense, spice::SolverMode::kSparse}) {
        const spice::SimContext ctx = mode_context(mode);
        const spice::ScopedContext bind(ctx);
        spice::Circuit c;
        const spice::NodeId a = c.add_node("a");
        const spice::NodeId b = c.add_node("b");
        c.add_vsource("V1", a, spice::kGround, spice::Waveform::dc(1.0));
        c.add_capacitor("C1", a, b, 1e-15); // b floats in DC
        spice::SolverOptions opts;
        opts.gmin = 0.0; // no convergence shunt to hide the singularity
        const spice::DcResult r = solve_dc(c, spice::ambient_context(), opts);
        EXPECT_FALSE(r.converged) << "mode " << static_cast<int>(mode);
        EXPECT_EQ(r.strategy, "failed");
        ASSERT_TRUE(r.error.has_value());
    }
}

// ------------------------------------------------- MNA assembly parity

TEST(SparseAssembly, CellSystemMatchesDenseExactly) {
    // Dense and sparse assembly run the same stamping code in the same
    // order, so corresponding entries see the same addends in the same
    // sequence: comparison is exact, not approximate.
    const spice::SimContext ctx = mode_context(spice::SolverMode::kDense);
    const spice::ScopedContext bind(ctx);
    sram::SramCell cell = sram::build_cell(proposed_array(1, 1).cell);
    spice::Circuit& c = cell.circuit;
    c.prepare();
    const std::size_t n = c.num_unknowns();

    Rng rng(42);
    la::Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = rng.uniform(0.0, 0.8);

    spice::AnalysisState as;
    as.mode = spice::AnalysisMode::kDc;

    la::Matrix jac_d;
    la::Vector rhs_d;
    spice::assemble(c, as, x, 1e-12, jac_d, rhs_d);

    la::SparseMatrix jac_s;
    spice::build_pattern(c, jac_s);
    la::Vector rhs_s;
    spice::assemble(c, as, x, 1e-12, jac_s, rhs_s);

    ASSERT_EQ(rhs_s.size(), rhs_d.size());
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(rhs_s[i], rhs_d[i]) << "rhs " << i;
    const la::Matrix back = jac_s.to_dense();
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t col = 0; col < n; ++col)
            EXPECT_EQ(back(r, col), jac_d(r, col)) << r << "," << col;
}

TEST(SparseAssembly, ArraySystemMatchesDenseExactly) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kDense);
    const spice::ScopedContext bind(ctx);
    array::SramArray arr(proposed_array(4, 2));
    spice::Circuit& c = arr.circuit();
    c.prepare();
    const std::size_t n = c.num_unknowns();

    Rng rng(7);
    la::Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = rng.uniform(0.0, 0.8);

    // Transient state so the capacitive companion models stamp too.
    spice::AnalysisState as;
    as.mode = spice::AnalysisMode::kTransient;
    as.dt = 1e-12;
    as.first_transient_step = true;

    la::Matrix jac_d;
    la::Vector rhs_d;
    spice::assemble(c, as, x, 1e-12, jac_d, rhs_d);

    la::SparseMatrix jac_s;
    spice::build_pattern(c, jac_s);
    la::Vector rhs_s;
    spice::assemble(c, as, x, 1e-12, jac_s, rhs_s);

    EXPECT_GT(jac_s.nnz(), 0u);
    EXPECT_LT(jac_s.nnz(), n * n / 4) << "array system should be sparse";
    const la::Matrix back = jac_s.to_dense();
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t col = 0; col < n; ++col)
            EXPECT_EQ(back(r, col), jac_d(r, col)) << r << "," << col;
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(rhs_s[i], rhs_d[i]) << "rhs " << i;
}

TEST(SparseAssembly, AmdFillNoWorseThanGreedyOnRealMnaPatterns) {
    // The AMD ordering replaced the O(n^2) greedy minimum-degree scan for
    // speed; on the patterns this simulator actually factors it must not
    // give that speed back as extra fill (a few percent of slack covers
    // the approximation).
    const spice::SimContext ctx = mode_context(spice::SolverMode::kDense);
    const spice::ScopedContext bind(ctx);
    const auto fill_of = [](spice::Circuit& c, bool use_amd) {
        c.prepare();
        la::SparseMatrix jac;
        spice::build_pattern(c, jac);
        Rng rng(42);
        la::Vector x(c.num_unknowns());
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = rng.uniform(0.0, 0.8);
        spice::AnalysisState as;
        as.mode = spice::AnalysisMode::kTransient;
        as.dt = 1e-12;
        as.first_transient_step = true;
        la::Vector rhs;
        spice::assemble(c, as, x, 1e-12, jac, rhs);
        la::SparseLu lu;
        if (use_amd)
            lu.analyze(jac); // default ordering is AMD
        else
            lu.analyze(jac, testing_support::minimum_degree_order(jac));
        EXPECT_TRUE(lu.refactor(jac));
        return lu.lu_nnz();
    };

    sram::SramCell cell = sram::build_cell(proposed_array(1, 1).cell);
    EXPECT_LE(fill_of(cell.circuit, true),
              fill_of(cell.circuit, false) * 105 / 100)
        << "cell MNA pattern";

    array::SramArray arr(proposed_array(4, 4));
    EXPECT_LE(fill_of(arr.circuit(), true),
              fill_of(arr.circuit(), false) * 105 / 100)
        << "array MNA pattern";
}

// ------------------------------------------------- full-simulation parity

TEST(SparseDenseSimulation, ArrayOperationsAgreeAcrossBackends) {
    // The end-to-end property: a full initialize/write/read sequence
    // produces the same stored data and closely matching analog results
    // whichever kernel the Newton loop runs on.
    const std::size_t rows = 3, cols = 2;
    double diff_dense = 0.0, diff_sparse = 0.0;
    double sep_dense = 0.0, sep_sparse = 0.0;

    for (const spice::SolverMode mode :
         {spice::SolverMode::kDense, spice::SolverMode::kSparse}) {
        const spice::SimContext ctx = mode_context(mode);
        const spice::ScopedContext bind(ctx);
        array::SramArray arr(proposed_array(rows, cols));
        ASSERT_TRUE(arr.initialize(checker(rows, cols)));

        const array::OpResult w = arr.write(1, 1, true);
        ASSERT_TRUE(w.ok) << w.message;
        const array::ReadResult rd = arr.read(1, 1);
        ASSERT_TRUE(rd.ok) << rd.message;
        EXPECT_TRUE(rd.value);

        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c) {
                const bool expect =
                    (r == 1 && c == 1) ? true : (r + c) % 2 == 0;
                EXPECT_EQ(arr.stored(r, c), expect)
                    << "mode " << static_cast<int>(mode) << " cell " << r
                    << "," << c;
            }

        const array::SolverInfo info = arr.solver_info();
        EXPECT_EQ(info.kind, mode == spice::SolverMode::kSparse
                                 ? spice::SolverKind::kSparse
                                 : spice::SolverKind::kDense);
        if (mode == spice::SolverMode::kSparse) {
            diff_sparse = rd.differential;
            sep_sparse = arr.separation(1, 1);
            EXPECT_GT(info.pattern_nnz, 0u);
            EXPECT_GE(info.lu_nnz, info.pattern_nnz / 2);
        } else {
            diff_dense = rd.differential;
            sep_dense = arr.separation(1, 1);
        }
    }

    // Same physics through both kernels: transient trajectories diverge
    // only by linear-solver round-off, far below any margin of interest.
    EXPECT_NEAR(diff_sparse, diff_dense, 1e-6);
    EXPECT_NEAR(sep_sparse, sep_dense, 1e-6);
}

// ------------------------------------------------- counter contracts

TEST(SparseCounters, OneSymbolicAnalysisPerCircuitTopology) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kSparse);
    const spice::ScopedContext bind(ctx);
    const spice::SolverStats before = spice::solver_stats();
    constexpr int kCircuits = 3;
    for (int i = 0; i < kCircuits; ++i) {
        spice::Circuit c;
        const spice::NodeId top = c.add_node("top");
        const spice::NodeId mid = c.add_node("mid");
        c.add_vsource("V1", top, spice::kGround, spice::Waveform::dc(1.0));
        c.add_resistor("R1", top, mid, 1e3);
        c.add_resistor("R2", mid, spice::kGround, 3e3);
        // Three solves of the same circuit reuse the one analysis.
        for (int s = 0; s < 3; ++s)
            ASSERT_TRUE(solve_dc(c, spice::ambient_context(), {}).converged);
    }
    const spice::SolverStats d = metered_since(before);
    EXPECT_EQ(d.sparse_symbolic_analyses, static_cast<std::uint64_t>(kCircuits));
}

TEST(SparseCounters, OneRefactorizationPerNewtonIteration) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kSparse);
    const spice::ScopedContext bind(ctx);
    sram::SramCell cell = sram::build_cell(proposed_array(1, 1).cell);
    const spice::SolverStats before = spice::solver_stats();
    const spice::DcResult r =
        solve_dc(cell.circuit, spice::ambient_context(), {});
    const spice::SolverStats d = metered_since(before);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(d.nr_iterations, 0u);
    // The repo-wide factorization contract holds on the sparse path, and
    // every factorization was a sparse refactor of the frozen pattern.
    EXPECT_EQ(d.lu_factorizations, d.nr_iterations);
    EXPECT_EQ(d.sparse_refactorizations, d.nr_iterations);
    EXPECT_EQ(d.assemblies, d.nr_iterations + d.line_search_backtracks);
    EXPECT_EQ(d.sparse_symbolic_analyses, 1u);
    // Gauges report the circuit's system size.
    EXPECT_GT(d.sparse_pattern_nnz, 0u);
    EXPECT_GE(d.sparse_lu_nnz, d.sparse_pattern_nnz / 2);
}

TEST(SparseCounters, DenseOnlyWindowReportsNoSparseWork) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kDense);
    const spice::ScopedContext bind(ctx);
    sram::SramCell cell = sram::build_cell(proposed_array(1, 1).cell);
    const spice::SolverStats before = spice::solver_stats();
    ASSERT_TRUE(solve_dc(cell.circuit, spice::ambient_context(), {}).converged);
    const spice::SolverStats d = metered_since(before);
    EXPECT_GT(d.lu_factorizations, 0u);
    EXPECT_EQ(d.sparse_refactorizations, 0u);
    EXPECT_EQ(d.sparse_symbolic_analyses, 0u);
    // Gauges pass through only when the window did sparse work.
    EXPECT_EQ(d.sparse_pattern_nnz, 0u);
    EXPECT_EQ(d.sparse_lu_nnz, 0u);
}

TEST(SparseCounters, AutoModeRoutesBySystemSize) {
    // kAuto routes a single cell (~10 unknowns) dense and an 8x4 array
    // (> threshold) sparse. An explicit context ignores TFETSRAM_SOLVER.
    const spice::SimContext ctx = mode_context(spice::SolverMode::kAuto);
    const spice::ScopedContext bind(ctx);

    sram::SramCell cell = sram::build_cell(proposed_array(1, 1).cell);
    ASSERT_LT(cell.circuit.num_unknowns(), spice::kSparseAutoThreshold);
    ASSERT_TRUE(solve_dc(cell.circuit, spice::ambient_context(), {}).converged);
    ASSERT_TRUE(cell.circuit.workspace().kind.has_value());
    EXPECT_EQ(*cell.circuit.workspace().kind, spice::SolverKind::kDense);

    array::SramArray arr(proposed_array(8, 4));
    ASSERT_GE(arr.circuit().num_unknowns(), spice::kSparseAutoThreshold);
    ASSERT_TRUE(arr.initialize(checker(8, 4)));
    ASSERT_TRUE(arr.circuit().workspace().kind.has_value());
    EXPECT_EQ(*arr.circuit().workspace().kind, spice::SolverKind::kSparse);
}

TEST(SparseCounters, FastPathCountersTrackArrayInitialization) {
    // Initializations refactor the same MNA pattern once per Newton
    // iterate: the very first factorization runs the full pivot search,
    // and the drifting-value repeats — including the re-initialization to
    // the complementary data pattern — ride the static fast path. The
    // batched device sweep serves every one of those assemblies.
    const spice::SimContext ctx = mode_context(spice::SolverMode::kSparse);
    const spice::ScopedContext bind(ctx);
    const spice::SolverStats before = spice::solver_stats();
    array::SramArray arr(proposed_array(4, 4));
    ASSERT_TRUE(arr.initialize(checker(4, 4)));
    std::vector<std::vector<bool>> flipped = checker(4, 4);
    for (auto& row : flipped)
        row.flip();
    ASSERT_TRUE(arr.initialize(flipped));
    const spice::SolverStats d = metered_since(before);
    EXPECT_GT(d.sparse_refactorizations, 1u);
    EXPECT_GT(d.sparse_static_pivot_hits, 0u);
    // At least the first refactor of each analyzed pattern ran the full
    // search, so hits never cover every refactor.
    EXPECT_LT(d.sparse_static_pivot_hits, d.sparse_refactorizations);
    EXPECT_GT(d.batched_evals, 0u);
    // Every assembly swept all of the array's transistors exactly once.
    EXPECT_EQ(d.batched_evals % d.assemblies, 0u);
    EXPECT_EQ(d.sparse_symbolic_analyses, 1u);
}

TEST(SparseCounters, DenseOnlyWindowReportsNoFastPathWork) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kDense);
    const spice::ScopedContext bind(ctx);
    sram::SramCell cell = sram::build_cell(proposed_array(1, 1).cell);
    const spice::SolverStats before = spice::solver_stats();
    ASSERT_TRUE(solve_dc(cell.circuit, spice::ambient_context(), {}).converged);
    const spice::SolverStats d = metered_since(before);
    EXPECT_EQ(d.sparse_static_pivot_hits, 0u);
    EXPECT_EQ(d.sparse_pivot_fallbacks, 0u);
    EXPECT_EQ(d.sparse_ordering_us, 0u);
}

TEST(SparseCounters, TopologyChangeTriggersFreshAnalysis) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kSparse);
    const spice::ScopedContext bind(ctx);
    spice::Circuit c;
    const spice::NodeId top = c.add_node("top");
    c.add_vsource("V1", top, spice::kGround, spice::Waveform::dc(1.0));
    c.add_resistor("R1", top, spice::kGround, 1e3);
    ASSERT_TRUE(solve_dc(c, spice::ambient_context(), {}).converged);

    // Growing the circuit invalidates the frozen pattern; the next solve
    // must re-run the symbolic analysis instead of stamping outside it.
    const spice::NodeId mid = c.add_node("mid");
    c.add_resistor("R2", top, mid, 1e3);
    c.add_resistor("R3", mid, spice::kGround, 1e3);
    const spice::SolverStats before = spice::solver_stats();
    ASSERT_TRUE(solve_dc(c, spice::ambient_context(), {}).converged);
    const spice::SolverStats d = metered_since(before);
    EXPECT_EQ(d.sparse_symbolic_analyses, 1u);
}

} // namespace
} // namespace tfetsram
