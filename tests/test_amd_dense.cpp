// Dense-node rule of la::amd_order. A node whose degree exceeds
// max(16, 10 sqrt(n)) is left out of the minimum-degree elimination and
// ordered last; on a flat array only the shared vdd rail qualifies. The
// rule changes the order but must not change the fill: on flat-array
// Jacobians from 4x4 to 64x64 the L+U nonzero count of the real
// factorization equals the one under the order computed with every node
// taking part (tests/support/amd_reference.cpp), and the two solves agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "array/array.hpp"
#include "la/sparse_lu.hpp"
#include "la/sparse_matrix.hpp"
#include "spice/context.hpp"
#include "sram/designs.hpp"
#include "support/amd_reference.hpp"

namespace tfetsram {
namespace {

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

/// Degree of every node in the symmetrized pattern, self-loops dropped.
std::vector<std::size_t> symmetric_degrees(const la::SparseMatrix& a) {
    const std::size_t n = a.rows();
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
            const std::size_t c = a.col_idx()[k];
            if (c == r)
                continue;
            adj[r].push_back(c);
            adj[c].push_back(r);
        }
    std::vector<std::size_t> deg(n);
    for (std::size_t v = 0; v < n; ++v) {
        std::sort(adj[v].begin(), adj[v].end());
        deg[v] = static_cast<std::size_t>(
            std::unique(adj[v].begin(), adj[v].end()) - adj[v].begin());
    }
    return deg;
}

bool is_permutation_of_n(const std::vector<std::size_t>& order,
                         std::size_t n) {
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        if (sorted[i] != i)
            return false;
    return sorted.size() == n;
}

/// Factor `a` under `order` and solve a fixed right-hand side.
std::pair<std::size_t, la::Vector> factor_and_solve(
    const la::SparseMatrix& a, std::vector<std::size_t> order) {
    la::SparseLu lu;
    lu.analyze(a, std::move(order));
    EXPECT_TRUE(lu.refactor(a));
    la::Vector b(a.rows());
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = 1e-6 * static_cast<double>(i % 7) - 2e-6;
    return {lu.lu_nnz(), lu.solve(b)};
}

TEST(AmdDenseNodes, FlatArrayFillMatchesTheAllNodesOrder) {
    spice::SimConfig sim;
    sim.mode = spice::SolverMode::kSparse;
    const spice::SimContext ctx(std::move(sim));
    const std::vector<std::pair<std::size_t, std::size_t>> sizes = {
        {4, 4}, {8, 8}, {16, 8}, {16, 16}, {32, 32}, {64, 64}};
    for (const auto& [rows, cols] : sizes) {
        const std::string what =
            std::to_string(rows) + "x" + std::to_string(cols);
        array::ArrayConfig cfg;
        cfg.rows = rows;
        cfg.cols = cols;
        cfg.cell = sram::proposed_design(0.8, models()).config;
        array::SramArray arr(cfg, &ctx);
        std::vector<std::vector<bool>> data(rows, std::vector<bool>(cols));
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
                data[r][c] = (r + 2 * c) % 3 == 0;
        ASSERT_TRUE(arr.initialize(data)) << what;
        // The Jacobian at the initialized state.
        const la::SparseMatrix& a = arr.circuit().workspace().sjac;
        const std::size_t n = a.rows();

        const std::vector<std::size_t> order = la::amd_order(a);
        const std::vector<std::size_t> all_nodes =
            testing_support::amd_order_all_nodes(a);
        ASSERT_TRUE(is_permutation_of_n(order, n)) << what;

        // Only vdd is dense, and a dense node is ordered last.
        const std::vector<std::size_t> deg = symmetric_degrees(a);
        const std::size_t threshold = std::max<std::size_t>(
            16, static_cast<std::size_t>(
                    10.0 * std::sqrt(static_cast<double>(n))));
        const std::size_t vdd = arr.circuit().node("vdd") - 1;
        std::vector<std::size_t> dense;
        for (std::size_t v = 0; v < n; ++v)
            if (deg[v] > threshold)
                dense.push_back(v);
        if (dense.empty()) {
            EXPECT_EQ(order, all_nodes) << what << ": no dense node";
        } else {
            EXPECT_EQ(dense, std::vector<std::size_t>{vdd}) << what;
            EXPECT_EQ(order.back(), vdd) << what;
        }
        if (rows * cols >= 16 * 16) {
            EXPECT_FALSE(dense.empty()) << what << ": vdd degree " << deg[vdd]
                                        << ", threshold " << threshold;
        }

        const auto [nnz, x] = factor_and_solve(a, order);
        const auto [nnz_ref, x_ref] = factor_and_solve(a, all_nodes);
        EXPECT_EQ(nnz, nnz_ref) << what << ": fill differs";
        EXPECT_EQ(nnz, arr.circuit().workspace().slu.lu_nnz()) << what;
        double scale = 0.0;
        for (const double v : x_ref)
            scale = std::max(scale, std::fabs(v));
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_NEAR(x[i], x_ref[i], 1e-9 * scale) << what << " unknown "
                                                      << i;
    }
}

} // namespace
} // namespace tfetsram
