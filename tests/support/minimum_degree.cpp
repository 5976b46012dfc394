#include "minimum_degree.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace tfetsram::testing_support {

std::vector<std::size_t> minimum_degree_order(const la::SparseMatrix& a) {
    TFET_EXPECTS(a.finalized());
    TFET_EXPECTS(a.rows() == a.cols());
    const std::size_t n = a.rows();

    // Adjacency of the symmetrized pattern A + A^T, self-loops dropped.
    std::vector<std::vector<std::size_t>> adj(n);
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
            const std::size_t c = ci[k];
            if (c == r)
                continue;
            adj[r].push_back(c);
            adj[c].push_back(r);
        }
    }
    for (auto& nb : adj) {
        std::sort(nb.begin(), nb.end());
        nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    }

    std::vector<std::size_t> order;
    order.reserve(n);
    std::vector<unsigned char> alive(n, 1);
    std::vector<unsigned char> mark(n, 0);
    std::vector<std::size_t> nb;     // live neighbours of the eliminated node
    std::vector<std::size_t> merged; // rebuilt adjacency scratch

    constexpr std::size_t knone = static_cast<std::size_t>(-1);
    for (std::size_t step = 0; step < n; ++step) {
        // Greedy pick: smallest live degree, lowest index on ties (the
        // scan keeps the ordering deterministic across platforms).
        std::size_t best = knone;
        std::size_t best_deg = knone;
        for (std::size_t v = 0; v < n; ++v) {
            if (!alive[v])
                continue;
            if (adj[v].size() < best_deg) {
                best_deg = adj[v].size();
                best = v;
            }
        }
        const std::size_t u = best;
        order.push_back(u);
        alive[u] = 0;

        nb.clear();
        for (std::size_t v : adj[u])
            if (alive[v])
                nb.push_back(v);

        // Eliminating u turns its neighbourhood into a clique.
        for (const std::size_t v : nb) {
            merged.clear();
            for (const std::size_t w : adj[v]) {
                if (!alive[w] || w == v || mark[w])
                    continue;
                mark[w] = 1;
                merged.push_back(w);
            }
            for (const std::size_t w : nb) {
                if (w == v || mark[w])
                    continue;
                mark[w] = 1;
                merged.push_back(w);
            }
            adj[v].assign(merged.begin(), merged.end());
            for (const std::size_t w : merged)
                mark[w] = 0;
        }
        adj[u].clear();
        adj[u].shrink_to_fit();
    }
    return order;
}

} // namespace tfetsram::testing_support
