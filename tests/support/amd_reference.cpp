#include "amd_reference.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace tfetsram::testing_support {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

} // namespace

// The body is la::amd_order as it was before the dense-node rule, with
// only the namespace qualification of SparseMatrix changed.
std::vector<std::size_t> amd_order_all_nodes(const la::SparseMatrix& a) {
    TFET_EXPECTS(a.finalized());
    TFET_EXPECTS(a.rows() == a.cols());
    const std::size_t n = a.rows();
    std::vector<std::size_t> order;
    order.reserve(n);
    if (n == 0)
        return order;

    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();

    // Quotient-graph state, all of it in flat index arenas (one backing
    // vector per list family instead of a vector-of-vectors): eliminating
    // variable p turns it into element p whose member list le[p] stands in
    // for the clique the greedy algorithm would have materialized;
    // elements wholly covered by a new element are absorbed, so list
    // lengths stay near the original pattern's instead of growing toward
    // the filled clique size.
    //
    // A_i (variable adjacency): counting-sorted symmetrized pattern.
    std::vector<std::size_t> astart(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k)
            if (ci[k] != r) {
                ++astart[r + 1];
                ++astart[ci[k] + 1];
            }
    for (std::size_t v = 0; v < n; ++v)
        astart[v + 1] += astart[v];
    std::vector<std::size_t> apool(astart[n]);
    std::vector<std::size_t> alen(n, 0);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
            const std::size_t c = ci[k];
            if (c == r)
                continue;
            apool[astart[r] + alen[r]++] = c;
            apool[astart[c] + alen[c]++] = r;
        }
    for (std::size_t v = 0; v < n; ++v) {
        const auto first =
            apool.begin() + static_cast<std::ptrdiff_t>(astart[v]);
        const auto last = first + static_cast<std::ptrdiff_t>(alen[v]);
        std::sort(first, last);
        alen[v] = static_cast<std::size_t>(std::unique(first, last) - first);
    }

    // E_i (adjacent elements): grow-by-one arena with doubling relocation
    // to the pool tail (an entry joins one element list per elimination).
    std::vector<std::size_t> epool;
    epool.reserve(4 * n);
    std::vector<std::size_t> estart(n, 0);
    std::vector<std::size_t> elen(n, 0);
    std::vector<std::size_t> ecap(n, 0);
    const auto elist_push = [&](std::size_t v, std::size_t e) {
        if (elen[v] == ecap[v]) {
            const std::size_t ncap = ecap[v] == 0 ? 4 : 2 * ecap[v];
            const std::size_t ns = epool.size();
            epool.resize(ns + ncap);
            for (std::size_t k = 0; k < elen[v]; ++k)
                epool[ns + k] = epool[estart[v] + k];
            estart[v] = ns;
            ecap[v] = ncap;
        }
        epool[estart[v] + elen[v]++] = e;
    };

    // le (element member lists): written once per elimination at the pool
    // tail, truncated to empty on absorption.
    std::vector<std::size_t> lpool;
    lpool.reserve(4 * n);
    std::vector<std::size_t> lstart(n, 0);
    std::vector<std::size_t> llen(n, 0);

    // Bucketed degree lists: head per degree plus intrusive prev/next.
    // Every operation below is index-arithmetic on deterministic inputs,
    // so the pick sequence (and the order) is platform-independent.
    std::vector<std::size_t> head(n, kNone);
    std::vector<std::size_t> nxt(n, kNone);
    std::vector<std::size_t> prv(n, kNone);
    std::vector<std::size_t> degree(n, 0);
    const auto bucket_insert = [&](std::size_t v, std::size_t d) {
        degree[v] = d;
        nxt[v] = head[d];
        prv[v] = kNone;
        if (head[d] != kNone)
            prv[head[d]] = v;
        head[d] = v;
    };
    const auto bucket_remove = [&](std::size_t v) {
        if (prv[v] != kNone)
            nxt[prv[v]] = nxt[v];
        else
            head[degree[v]] = nxt[v];
        if (nxt[v] != kNone)
            prv[nxt[v]] = prv[v];
    };
    for (std::size_t v = 0; v < n; ++v)
        bucket_insert(v, alen[v]);

    std::vector<unsigned char> var_alive(n, 1);
    std::vector<unsigned char> elem_alive(n, 0);
    std::vector<unsigned char> in_lp(n, 0);
    // w[e] = |le[e] \ Lp| per elimination (the Amestoy/Davis/Duff
    // decrement trick); wstamp validates w against the current pivot.
    std::vector<std::size_t> w(n, 0);
    std::vector<std::size_t> wstamp(n, 0);
    std::size_t stamp = 0;
    std::vector<std::size_t> lp; // members of the new element

    std::size_t mindeg = 0;
    for (std::size_t step = 0; step < n; ++step) {
        while (head[mindeg] == kNone)
            ++mindeg;
        const std::size_t p = head[mindeg];
        bucket_remove(p);
        order.push_back(p);
        var_alive[p] = 0;

        // Lp: live variables adjacent to p directly or through any of its
        // elements. Those elements are then absorbed into the new one.
        lp.clear();
        for (std::size_t k = 0; k < alen[p]; ++k) {
            const std::size_t v = apool[astart[p] + k];
            if (var_alive[v] && !in_lp[v]) {
                in_lp[v] = 1;
                lp.push_back(v);
            }
        }
        for (std::size_t k = 0; k < elen[p]; ++k) {
            const std::size_t e = epool[estart[p] + k];
            if (!elem_alive[e])
                continue;
            for (std::size_t j = 0; j < llen[e]; ++j) {
                const std::size_t v = lpool[lstart[e] + j];
                if (var_alive[v] && !in_lp[v]) {
                    in_lp[v] = 1;
                    lp.push_back(v);
                }
            }
            elem_alive[e] = 0;
            llen[e] = 0;
        }
        std::sort(lp.begin(), lp.end()); // canonical member order
        lstart[p] = lpool.size();
        lpool.insert(lpool.end(), lp.begin(), lp.end());
        llen[p] = lp.size();
        elem_alive[p] = 1;
        alen[p] = 0;
        elen[p] = 0;

        // First pass: w[e] = |le[e] \ Lp| for every element touching Lp.
        // le lists may carry long-dead variables (they are only pruned
        // when rebuilt), so w can overestimate — that only makes the
        // *approximate* degree conservative, never wrong.
        ++stamp;
        for (const std::size_t i : lp) {
            for (std::size_t k = 0; k < elen[i]; ++k) {
                const std::size_t e = epool[estart[i] + k];
                if (!elem_alive[e])
                    continue;
                if (wstamp[e] != stamp) {
                    wstamp[e] = stamp;
                    w[e] = llen[e];
                }
                --w[e];
            }
        }

        // Second pass: prune each member's lists against the new element
        // and recompute its approximate degree
        //   d_i = |A_i \ Lp| + (|Lp| - 1) + sum_e |le[e] \ Lp|.
        for (const std::size_t i : lp) {
            std::size_t out = 0;
            for (std::size_t k = 0; k < alen[i]; ++k) {
                const std::size_t v = apool[astart[i] + k];
                if (var_alive[v] && !in_lp[v])
                    apool[astart[i] + out++] = v;
            }
            alen[i] = out;

            std::size_t out2 = 0;
            std::size_t dsum = 0;
            for (std::size_t k = 0; k < elen[i]; ++k) {
                const std::size_t e = epool[estart[i] + k];
                if (!elem_alive[e])
                    continue;
                const std::size_t we = wstamp[e] == stamp ? w[e] : llen[e];
                if (we == 0) {
                    // le[e]'s live members all sit inside Lp: element e is
                    // covered by the new element p — absorb it.
                    elem_alive[e] = 0;
                    llen[e] = 0;
                    continue;
                }
                dsum += we;
                epool[estart[i] + out2++] = e;
            }
            elen[i] = out2;
            elist_push(i, p);

            std::size_t d = alen[i] + (lp.size() - 1) + dsum;
            if (d > n - 1)
                d = n - 1;
            bucket_remove(i);
            bucket_insert(i, d);
            if (d < mindeg)
                mindeg = d;
        }
        for (const std::size_t i : lp)
            in_lp[i] = 0;
    }
    return order;
}

} // namespace tfetsram::testing_support
