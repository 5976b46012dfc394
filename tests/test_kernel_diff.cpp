// Differential oracles for the two kernels under every dense Newton
// iteration. C-V: DeviceTable::cv reads both capacitance grids with one
// value-only lookup (Grid2d::values); it must be bitwise the floored
// eval().f of each grid over the whole bias box — nodes, first and last
// cells, the exact edges and extrapolated points — for the nominal
// tables, a mirrored model and Monte-Carlo draws. LU: la::LuFactorization
// checks its bounds once at entry and walks row pointers; its factors,
// permutation, solutions and failing column must be bitwise the
// per-element-checked reference kernel's, on random systems and on the
// Jacobians of a TFET 6T write transient.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "device/models.hpp"
#include "la/lu.hpp"
#include "mc/variation.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"
#include "sram/designs.hpp"
#include "sram/operations.hpp"
#include "support/dense_lu_reference.hpp"

namespace tfetsram {
namespace {

bool same_bits(const void* a, const void* b, std::size_t bytes) {
    return std::memcmp(a, b, bytes) == 0;
}

// ------------------------------------------------------------------ C-V

const device::DeviceTable& as_table(const spice::TransistorModelPtr& m) {
    const auto* t = dynamic_cast<const device::DeviceTable*>(m.get());
    TFET_ASSERT(t != nullptr);
    return *t;
}

/// Sweep coordinates along one table axis: every node, a point inside
/// every cell, points just inside and on both edges, and extrapolated
/// points beyond them.
std::vector<double> axis_points(const device::Grid2d& g, bool x_axis) {
    const std::size_t n = x_axis ? g.nx() : g.ny();
    const auto node = [&](std::size_t i) {
        return x_axis ? g.x_at(i) : g.y_at(i);
    };
    const double lo = node(0);
    const double hi = node(n - 1);
    const double h = node(1) - lo;
    std::vector<double> pts;
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(node(i));
        if (i + 1 < n)
            pts.push_back(node(i) + 0.37 * h);
    }
    for (double f : {1e-9, 0.5, 0.999}) {
        pts.push_back(lo + f * h);
        pts.push_back(hi - f * h);
    }
    const double inf = std::numeric_limits<double>::infinity();
    pts.push_back(std::nextafter(lo, inf));
    pts.push_back(std::nextafter(hi, -inf));
    for (double d : {1e-12, 1e-3, 0.2, 1.5}) {
        pts.push_back(lo - d);
        pts.push_back(hi + d);
    }
    return pts;
}

spice::CvSample floored(double cgs, double cgd) {
    return {std::max(cgs, 1e-18), std::max(cgd, 1e-18)};
}

/// Points of the sweep over `table`'s axes where `model.cv` differs in
/// any byte from `oracle`; `points` receives the size of the sweep.
template <class Oracle>
std::size_t cv_mismatches(const spice::TransistorModel& model,
                          const device::DeviceTable& table,
                          const Oracle& oracle, std::size_t& points) {
    const std::vector<double> xs = axis_points(table.cgs_grid(), true);
    const std::vector<double> ys = axis_points(table.cgs_grid(), false);
    std::size_t bad = 0;
    points = 0;
    for (double vds : ys)
        for (double vgs : xs) {
            const spice::CvSample got = model.cv(vgs, vds);
            const spice::CvSample want = oracle(vgs, vds);
            if (!same_bits(&got, &want, sizeof got))
                ++bad;
            ++points;
        }
    return bad;
}

void expect_cv_matches_grids(const spice::TransistorModelPtr& m,
                             const std::string& what) {
    const device::DeviceTable& t = as_table(m);
    std::size_t points = 0;
    const auto oracle = [&](double vgs, double vds) {
        return floored(t.cgs_grid().eval(vgs, vds).f,
                       t.cgd_grid().eval(vgs, vds).f);
    };
    EXPECT_EQ(cv_mismatches(*m, t, oracle, points), 0u) << what;
    EXPECT_GT(points, 200000u) << what;
}

const device::ModelSet& nominal() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

TEST(CvDiff, NominalTablesMatchFlooredGridEval) {
    expect_cv_matches_grids(nominal().ntfet, "nTFET");
    expect_cv_matches_grids(nominal().ptfet, "pTFET");
}

TEST(CvDiff, MirroredTableMatchesNegatedGridEval) {
    const device::DeviceTable& inner = as_table(nominal().ntfet);
    const device::MirrorModel mirror(nominal().ntfet, "mirrored nTFET");
    std::size_t points = 0;
    const auto oracle = [&](double vgs, double vds) {
        return floored(inner.cgs_grid().eval(-vgs, -vds).f,
                       inner.cgd_grid().eval(-vgs, -vds).f);
    };
    EXPECT_EQ(cv_mismatches(mirror, inner, oracle, points), 0u);
    EXPECT_GT(points, 200000u);
}

TEST(CvDiff, MonteCarloDrawsMatchFlooredGridEval) {
    const mc::TfetVariationSampler sampler(mc::VariationSpec{});
    for (double u : {-2.0, 2.0}) {
        const mc::TfetVariationSampler::Draw draw = sampler.sample_at(u);
        const std::string what = "sample_at(" + std::to_string(u) + ")";
        expect_cv_matches_grids(draw.models.ntfet, "nTFET " + what);
        expect_cv_matches_grids(draw.models.ptfet, "pTFET " + what);
    }
}

TEST(CvDiff, ValuesRequireSharedAxes) {
    device::Grid2d a(-1.0, 1.0, 9, -1.0, 1.0, 9);
    const device::Grid2d wider(-1.0, 1.5, 9, -1.0, 1.0, 9);
    const device::Grid2d finer(-1.0, 1.0, 9, -1.0, 1.0, 11);
    EXPECT_THROW((void)device::Grid2d::values(a, wider, 0.1, 0.2),
                 contract_violation);
    EXPECT_THROW((void)device::Grid2d::values(a, finer, 0.1, 0.2),
                 contract_violation);
    // Same axes, different data: each value is its own grid's.
    device::Grid2d b(-1.0, 1.0, 9, -1.0, 1.0, 9);
    for (std::size_t iy = 0; iy < 9; ++iy)
        for (std::size_t ix = 0; ix < 9; ++ix) {
            a.at(ix, iy) = std::sin(1.0 + ix) * std::cos(0.5 * iy);
            b.at(ix, iy) = std::exp(0.1 * ix) - 0.3 * iy * iy;
        }
    for (double y : {-1.2, -0.9, 0.0, 0.31, 0.99, 1.0})
        for (double x : {-1.0, -0.6, 0.05, 0.4, 0.77, 1.3}) {
            const device::Grid2d::ValuePair v =
                device::Grid2d::values(a, b, x, y);
            const double fa = a.eval(x, y).f;
            const double fb = b.eval(x, y).f;
            EXPECT_TRUE(same_bits(&v.a, &fa, sizeof fa)) << x << "," << y;
            EXPECT_TRUE(same_bits(&v.b, &fb, sizeof fb)) << x << "," << y;
        }
}

// ------------------------------------------------------------------- LU

/// Factor `a` with both kernels and check factors, permutation and (on
/// success) the solution of a fixed right-hand side bit for bit. Returns
/// the reference's failing column (a.rows() on success).
std::size_t expect_lu_identical(const la::Matrix& a, const std::string& what,
                                double pivot_tol = 1e-300) {
    const std::size_t n = a.rows();
    la::Matrix ref = a;
    std::vector<std::size_t> ref_perm;
    const std::size_t failed_at =
        testing_support::reference_eliminate(ref, ref_perm, pivot_tol);

    la::LuFactorization lu;
    const bool ok = lu.factor_in_place(a, pivot_tol);
    EXPECT_EQ(ok, failed_at == n) << what;
    EXPECT_EQ(lu.permutation(), ref_perm) << what;
    EXPECT_TRUE(same_bits(lu.factors().data(), ref.data(),
                          n * n * sizeof(double)))
        << what;
    if (!ok || failed_at != n)
        return failed_at;

    la::Vector b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = std::cos(0.7 * static_cast<double>(i) + 0.1) * 1e-3;
    la::Vector x_ref;
    testing_support::reference_solve_into(ref, ref_perm, b, x_ref);
    la::Vector x;
    lu.solve_into(b, x);
    EXPECT_EQ(x.size(), n) << what;
    EXPECT_TRUE(same_bits(x.data(), x_ref.data(), n * sizeof(double)))
        << what;
    return failed_at;
}

TEST(LuDiff, RandomSystemsMatchReferenceKernel) {
    std::mt19937_64 rng(20110314);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    std::bernoulli_distribution zero(0.4);
    for (std::size_t n = 1; n <= 40; ++n) {
        // Dense random: pivots swap rows at almost every column.
        la::Matrix dense(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                dense(r, c) = u(rng);
        EXPECT_EQ(expect_lu_identical(dense, "dense n=" + std::to_string(n)),
                  n);
        // MNA-like: many exact zeros below the pivots (the factor == 0
        // skip) with a strong diagonal that still swaps sometimes.
        la::Matrix sparse(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                sparse(r, c) = r == c      ? 0.5 + u(rng)
                               : zero(rng) ? 0.0
                                           : u(rng);
        EXPECT_EQ(
            expect_lu_identical(sparse, "sparse n=" + std::to_string(n)), n);
    }
}

TEST(LuDiff, SingularSystemsFailAtTheSameColumn) {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (std::size_t n = 2; n <= 40; n += 3) {
        // A zero column stays zero under row operations: elimination runs
        // through the columns before it and fails exactly there.
        la::Matrix a(n, n);
        const std::size_t dead = n / 2;
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                a(r, c) = c == dead ? 0.0 : u(rng);
        EXPECT_EQ(expect_lu_identical(a, "singular n=" + std::to_string(n)),
                  dead);
    }
    // A threshold above every pivot fails at column 0 on both kernels.
    la::Matrix small(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
        small(i, i) = 1e-6;
    EXPECT_EQ(expect_lu_identical(small, "tolerance", 1e-3), 0u);
}

TEST(LuDiff, TfetWriteTransientJacobiansMatchReferenceKernel) {
    sram::CellConfig cfg = sram::proposed_design(0.8, nominal()).config;
    cfg.beta = 2.0;
    sram::SramCell cell = sram::build_cell(cfg);
    const bool value = sram::preferred_write_value(cell);
    const spice::SolverOptions opts;
    const sram::HoldState hold = sram::solve_hold_state(cell, !value, opts);
    ASSERT_TRUE(hold.converged && hold.state_ok);
    const sram::OperationWindow w =
        sram::program_write(cell, value, 1e-9, sram::Assist::kNone);
    const spice::TransientResult tr =
        spice::solve_transient(cell.circuit, spice::ambient_context(), opts,
                               w.t_end, {}, &hold.x);
    ASSERT_TRUE(tr.completed);
    ASSERT_GT(tr.size(), 20u);

    // Re-linearize at accepted states along the write (DC and transient
    // companions): the systems the Newton loop factors.
    std::size_t checked = 0;
    const std::size_t stride = std::max<std::size_t>(1, tr.size() / 40);
    for (std::size_t i = 0; i < tr.size(); i += stride) {
        for (spice::AnalysisMode mode :
             {spice::AnalysisMode::kDc, spice::AnalysisMode::kTransient}) {
            spice::AnalysisState as;
            as.mode = mode;
            as.time = tr.times()[i];
            as.dt = 1e-12;
            la::Matrix jac;
            la::Vector rhs;
            spice::assemble(cell.circuit, as, tr.state(i), opts.gmin, jac,
                            rhs);
            const std::string what = "state " + std::to_string(i);
            EXPECT_EQ(expect_lu_identical(jac, what), jac.rows()) << what;
            ++checked;
        }
    }
    EXPECT_GE(checked, 40u);
}

} // namespace
} // namespace tfetsram
