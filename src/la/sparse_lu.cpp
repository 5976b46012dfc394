#include "la/sparse_lu.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace tfetsram::la {

namespace {

/// Diagonal-preference factor for threshold pivoting: the structural
/// diagonal is kept whenever |a_diag| >= kDiagPreference * |a_max| in its
/// column, trading a bounded element-growth factor for the fill pattern
/// the fill-reducing ordering planned.
constexpr double kDiagPreference = 0.1;

/// Element-growth bound for a threshold-pivoted factor. Growth beyond this
/// means the diagonal preference accepted pivots that amplified roundoff
/// past what an iterative-refinement-free solve can absorb; the factor is
/// redone with pure partial pivoting (growth then bounded by 2^depth of
/// the elimination, in practice tiny for MNA systems).
constexpr double kGrowthLimit = 1e10;

/// Element-growth bound for the static-pivot sweep — tighter than the
/// threshold bound because the sweep performs no pivot search at all, so
/// growth is the only signal that the reused sequence went stale.
constexpr double kStaticGrowthLimit = 1e8;

/// A reused pivot must stay at least this fraction of its column's
/// magnitude. Newton drifts conductances smoothly, so a healthy reused
/// pivot sits near the threshold-pivoting ratio that chose it (>= 0.1);
/// an order-of-magnitude slide past that means the numerics moved enough
/// to re-pivot.
constexpr double kStaticPivotFloor = 1e-3;

/// "No node" sentinel for the ordering algorithms' intrusive lists.
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Dense-node rule of the AMD ordering (SuiteSparse AMD's): a node whose
/// degree in the symmetrized pattern exceeds
/// max(kDenseDegreeMin, kDenseDegreeFactor * sqrt(n)) leaves the graph
/// before ordering and is ordered last. An array's shared vdd rail is such
/// a node (degree 2 x cells + 1): left in, it joins nearly every new
/// element and its list is rescanned each time, which makes the ordering
/// quadratic in the array size.
constexpr std::size_t kDenseDegreeMin = 16;
constexpr double kDenseDegreeFactor = 10.0;

} // namespace

// ------------------------------------------- approximate minimum degree

std::vector<std::size_t> amd_order(const SparseMatrix& a) {
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

    // Dense nodes leave the graph: dropped from every adjacency list, never
    // picked, appended to the order in index order at the end.
    const auto dense_degree = std::max(
        kDenseDegreeMin,
        static_cast<std::size_t>(kDenseDegreeFactor *
                                 std::sqrt(static_cast<double>(n))));
    std::vector<unsigned char> var_alive(n, 1);
    std::vector<std::size_t> dense_nodes;
    for (std::size_t v = 0; v < n; ++v)
        if (alen[v] > dense_degree) {
            var_alive[v] = 0;
            dense_nodes.push_back(v);
        }
    if (!dense_nodes.empty()) {
        for (std::size_t v = 0; v < n; ++v) {
            if (var_alive[v] == 0)
                continue;
            std::size_t out = 0;
            for (std::size_t k = 0; k < alen[v]; ++k) {
                const std::size_t u = apool[astart[v] + k];
                if (var_alive[u] != 0)
                    apool[astart[v] + out++] = u;
            }
            alen[v] = out;
        }
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
        if (var_alive[v] != 0)
            bucket_insert(v, alen[v]);

    std::vector<unsigned char> elem_alive(n, 0);
    std::vector<unsigned char> in_lp(n, 0);
    // w[e] = |le[e] \ Lp| per elimination (the Amestoy/Davis/Duff
    // decrement trick); wstamp validates w against the current pivot.
    std::vector<std::size_t> w(n, 0);
    std::vector<std::size_t> wstamp(n, 0);
    std::size_t stamp = 0;
    std::vector<std::size_t> lp; // members of the new element

    std::size_t mindeg = 0;
    for (std::size_t step = dense_nodes.size(); step < n; ++step) {
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
    order.insert(order.end(), dense_nodes.begin(), dense_nodes.end());
    return order;
}

// ------------------------------------------------------------- analyze

void SparseLu::analyze(const SparseMatrix& a) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::size_t> order = amd_order(a);
    const auto t1 = std::chrono::steady_clock::now();
    analyze(a, std::move(order));
    ordering_us_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count());
}

void SparseLu::analyze(const SparseMatrix& a, std::vector<std::size_t> order) {
    TFET_EXPECTS(a.finalized());
    TFET_EXPECTS(a.rows() == a.cols());
    TFET_EXPECTS(order.size() == a.rows());
    n_ = a.rows();
    analyzed_ = false;
    factored_ = false;
    static_ready_ = false;
    ordering_us_ = 0;

    q_ = std::move(order);

    // CSC view of the CSR pattern: csc_val_[k] indexes a.values() so every
    // refactor gathers fresh numeric values without touching the pattern.
    const auto& rp = a.row_ptr();
    const auto& ci = a.col_idx();
    const std::size_t nnz = a.nnz();
    csc_ptr_.assign(n_ + 1, 0);
    for (std::size_t k = 0; k < nnz; ++k)
        ++csc_ptr_[ci[k] + 1];
    for (std::size_t c = 0; c < n_; ++c)
        csc_ptr_[c + 1] += csc_ptr_[c];
    csc_row_.resize(nnz);
    csc_val_.resize(nnz);
    std::vector<std::size_t> next(csc_ptr_.begin(), csc_ptr_.end() - 1);
    for (std::size_t r = 0; r < n_; ++r) {
        for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
            const std::size_t c = ci[k];
            const std::size_t dst = next[c]++;
            csc_row_[dst] = r;
            csc_val_[dst] = k;
        }
    }

    l_ptr_.assign(n_ + 1, 0);
    u_ptr_.assign(n_ + 1, 0);
    udiag_.assign(n_, 0.0);
    pinv_.assign(n_, npos);
    p_.assign(n_, npos);
    work_x_.assign(n_, 0.0);
    mark_.assign(n_, 0);
    topo_.clear();
    topo_.reserve(n_);
    stack_.clear();
    stack_.reserve(n_);
    pstack_.clear();
    pstack_.reserve(n_);
    analyzed_ = true;
}

// ------------------------------------------------------------ refactor

bool SparseLu::refactor(const SparseMatrix& a, double pivot_tol) {
    TFET_EXPECTS(analyzed_);
    TFET_EXPECTS(a.finalized());
    TFET_EXPECTS(a.rows() == n_ && a.cols() == n_);
    TFET_EXPECTS(a.nnz() == csc_row_.size());
    factored_ = false;
    last_ = {};

    double growth = 0.0;
    if (static_enabled_ && static_ready_) {
        if (refactor_static(a, pivot_tol, growth)) {
            last_.static_hit = true;
            last_.growth = growth;
            factored_ = true;
            return true;
        }
        // The reused sequence went stale (pivot decay or growth): the
        // factor arrays are dirty, rebuild them with a full pivot search.
        ++last_.fallbacks;
        static_ready_ = false;
    }

    if (!refactor_full(a, pivot_tol, kDiagPreference, growth))
        return false;
    if (growth > kGrowthLimit) {
        // The diagonal preference traded too much stability for fill:
        // redo with pure partial pivoting before trusting the solve.
        ++last_.fallbacks;
        if (!refactor_full(a, pivot_tol, /*diag_preference=*/0.0, growth))
            return false;
    }
    last_.growth = growth;

    // Every row is pivotal now; remap L's row ids to pivot steps so the
    // substitutions run in step space, and order U's columns by step so
    // the static sweep can replay them as a dependency-ordered run.
    for (std::size_t& r : l_row_)
        r = pinv_[r];
    sort_u_columns();
    static_ready_ = true;
    factored_ = true;
    return true;
}

bool SparseLu::refactor_full(const SparseMatrix& a, double pivot_tol,
                             double diag_preference, double& growth) {
    const std::vector<double>& aval = a.values();
    l_row_.clear();
    l_val_.clear();
    u_row_.clear();
    u_val_.clear();
    std::fill(pinv_.begin(), pinv_.end(), npos);
    std::fill(p_.begin(), p_.end(), npos);

    double amax = 0.0;
    for (const double v : aval)
        amax = std::max(amax, std::fabs(v));
    if (amax == 0.0)
        amax = 1.0;
    double gmax = 0.0;

    for (std::size_t j = 0; j < n_; ++j) {
        const std::size_t col = q_[j];

        // ---- symbolic: rows reachable from this column's pattern through
        // the already-built part of L (Gilbert–Peierls DFS). topo_ ends up
        // in post-order; iterating it backwards is a topological order.
        topo_.clear();
        for (std::size_t k = csc_ptr_[col]; k < csc_ptr_[col + 1]; ++k) {
            const std::size_t seed = csc_row_[k];
            if (mark_[seed])
                continue;
            stack_.clear();
            pstack_.clear();
            stack_.push_back(seed);
            pstack_.push_back(0);
            mark_[seed] = 1;
            while (!stack_.empty()) {
                const std::size_t node = stack_.back();
                const std::size_t s = pinv_[node];
                const std::size_t child_begin =
                    s == npos ? 0 : l_ptr_[s];
                const std::size_t child_end = s == npos ? 0 : l_ptr_[s + 1];
                std::size_t pos = pstack_.back();
                bool descended = false;
                while (child_begin + pos < child_end) {
                    const std::size_t child = l_row_[child_begin + pos];
                    ++pos;
                    if (!mark_[child]) {
                        pstack_.back() = pos;
                        stack_.push_back(child);
                        pstack_.push_back(0);
                        mark_[child] = 1;
                        descended = true;
                        break;
                    }
                }
                if (descended)
                    continue;
                stack_.pop_back();
                pstack_.pop_back();
                topo_.push_back(node);
            }
        }

        // ---- numeric: scatter the column, then the sparse triangular
        // solve x = L \ A(:, col) in topological order.
        for (std::size_t k = csc_ptr_[col]; k < csc_ptr_[col + 1]; ++k)
            work_x_[csc_row_[k]] = aval[csc_val_[k]];
        for (std::size_t t = topo_.size(); t-- > 0;) {
            const std::size_t node = topo_[t];
            const std::size_t s = pinv_[node];
            if (s == npos)
                continue;
            const double xj = work_x_[node];
            if (xj == 0.0)
                continue;
            for (std::size_t k = l_ptr_[s]; k < l_ptr_[s + 1]; ++k)
                work_x_[l_row_[k]] -= l_val_[k] * xj;
        }

        // ---- pivot: threshold partial pivoting over the not-yet-pivotal
        // rows, preferring the structural diagonal when it is competitive.
        std::size_t ipiv = npos;
        double max_mag = 0.0;
        for (const std::size_t node : topo_) {
            if (pinv_[node] != npos)
                continue;
            const double mag = std::fabs(work_x_[node]);
            if (mag > max_mag) {
                max_mag = mag;
                ipiv = node;
            }
        }
        if (ipiv == npos || max_mag < pivot_tol) {
            for (const std::size_t node : topo_) {
                work_x_[node] = 0.0;
                mark_[node] = 0;
            }
            return false; // structurally or numerically singular column
        }
        if (diag_preference > 0.0 && ipiv != col && pinv_[col] == npos &&
            std::fabs(work_x_[col]) >= diag_preference * max_mag)
            ipiv = col;
        const double pivot = work_x_[ipiv];

        // ---- store the column: finished rows into U, the rest into L.
        // Exact numeric zeros are stored too — the structure must be the
        // full symbolic structure of this pivot sequence so the static
        // sweep can reuse it under different values.
        for (const std::size_t node : topo_) {
            const std::size_t s = pinv_[node];
            const double xv = work_x_[node];
            const double mag = std::fabs(xv);
            if (mag > gmax)
                gmax = mag;
            if (s != npos) {
                u_row_.push_back(s);
                u_val_.push_back(xv);
            } else if (node != ipiv) {
                l_row_.push_back(node); // original row id; remapped later
                l_val_.push_back(xv / pivot);
            }
            work_x_[node] = 0.0;
            mark_[node] = 0;
        }
        udiag_[j] = pivot;
        u_ptr_[j + 1] = u_row_.size();
        l_ptr_[j + 1] = l_row_.size();
        pinv_[ipiv] = j;
        p_[j] = ipiv;
    }

    growth = gmax / amax;
    return true;
}

void SparseLu::sort_u_columns() {
    // Entries were appended in DFS post-order; the static sweep needs each
    // column ascending by pivot step (solve_into is order-insensitive).
    auto& perm = usort_scratch_;
    for (std::size_t j = 0; j < n_; ++j) {
        const std::size_t lo = u_ptr_[j];
        const std::size_t hi = u_ptr_[j + 1];
        const std::size_t len = hi - lo;
        if (len < 2)
            continue;
        const bool sorted =
            std::is_sorted(u_row_.begin() + static_cast<std::ptrdiff_t>(lo),
                           u_row_.begin() + static_cast<std::ptrdiff_t>(hi));
        if (sorted)
            continue;
        perm.resize(len);
        for (std::size_t k = 0; k < len; ++k)
            perm[k] = k;
        std::sort(perm.begin(), perm.end(),
                  [&](std::size_t x, std::size_t y) {
                      return u_row_[lo + x] < u_row_[lo + y];
                  });
        // Apply the permutation out of place via scratch copies (columns
        // are short; simplicity beats in-place cycle chasing here).
        static thread_local std::vector<std::size_t> rows_tmp;
        static thread_local std::vector<double> vals_tmp;
        rows_tmp.assign(u_row_.begin() + static_cast<std::ptrdiff_t>(lo),
                        u_row_.begin() + static_cast<std::ptrdiff_t>(hi));
        vals_tmp.assign(u_val_.begin() + static_cast<std::ptrdiff_t>(lo),
                        u_val_.begin() + static_cast<std::ptrdiff_t>(hi));
        for (std::size_t k = 0; k < len; ++k) {
            u_row_[lo + k] = rows_tmp[perm[k]];
            u_val_[lo + k] = vals_tmp[perm[k]];
        }
    }
}

bool SparseLu::refactor_static(const SparseMatrix& a, double pivot_tol,
                               double& growth) {
    // Branch-free replay of the previous factorization: same column order,
    // same pivot sequence, same L/U structure — only the numbers change.
    // Everything runs in pivot-step space (work_x_[s] is the value at
    // pivot step s), so there is no DFS, no pivot search, and no growth
    // of the factor arrays.
    const std::vector<double>& aval = a.values();
    double amax = 0.0;
    for (const double v : aval)
        amax = std::max(amax, std::fabs(v));
    if (amax == 0.0)
        amax = 1.0;
    double gmax = 0.0;

    for (std::size_t j = 0; j < n_; ++j) {
        const std::size_t col = q_[j];
        for (std::size_t k = csc_ptr_[col]; k < csc_ptr_[col + 1]; ++k)
            work_x_[pinv_[csc_row_[k]]] = aval[csc_val_[k]];

        // U part: entries ascend by pivot step, so each x[s] is final when
        // visited; apply its L-column update immediately (left-looking).
        double colmax = 0.0;
        for (std::size_t t = u_ptr_[j]; t < u_ptr_[j + 1]; ++t) {
            const std::size_t s = u_row_[t];
            const double xs = work_x_[s];
            u_val_[t] = xs;
            const double mag = std::fabs(xs);
            if (mag > colmax)
                colmax = mag;
            if (xs == 0.0)
                continue;
            for (std::size_t k = l_ptr_[s]; k < l_ptr_[s + 1]; ++k)
                work_x_[l_row_[k]] -= l_val_[k] * xs;
        }

        const double pivot = work_x_[j];
        const double pmag = std::fabs(pivot);
        if (pmag > colmax)
            colmax = pmag;
        for (std::size_t k = l_ptr_[j]; k < l_ptr_[j + 1]; ++k) {
            const double mag = std::fabs(work_x_[l_row_[k]]);
            if (mag > colmax)
                colmax = mag;
        }
        if (pmag < pivot_tol || pmag < kStaticPivotFloor * colmax) {
            // Reused pivot went stale. Clear this column's scatter (prior
            // columns already cleared theirs) and report the miss; the
            // factor arrays are dirty until the caller's full refactor.
            for (std::size_t t = u_ptr_[j]; t < u_ptr_[j + 1]; ++t)
                work_x_[u_row_[t]] = 0.0;
            work_x_[j] = 0.0;
            for (std::size_t k = l_ptr_[j]; k < l_ptr_[j + 1]; ++k)
                work_x_[l_row_[k]] = 0.0;
            return false;
        }

        udiag_[j] = pivot;
        for (std::size_t k = l_ptr_[j]; k < l_ptr_[j + 1]; ++k) {
            const std::size_t dst = l_row_[k];
            l_val_[k] = work_x_[dst] / pivot;
            work_x_[dst] = 0.0;
        }
        for (std::size_t t = u_ptr_[j]; t < u_ptr_[j + 1]; ++t)
            work_x_[u_row_[t]] = 0.0;
        work_x_[j] = 0.0;
        if (colmax > gmax)
            gmax = colmax;
        if (gmax > kStaticGrowthLimit * amax)
            return false; // growth tripped: abandon, caller re-pivots
    }
    growth = gmax / amax;
    return true;
}

// --------------------------------------------------------------- solve

void SparseLu::solve_into(const Vector& b, Vector& x) const {
    TFET_EXPECTS(factored_);
    TFET_EXPECTS(b.size() == n_);
    TFET_EXPECTS(&b != &x);

    // Forward substitution L y = P b (unit diagonal), column-oriented.
    work_y_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k)
        work_y_[k] = b[p_[k]];
    for (std::size_t k = 0; k < n_; ++k) {
        const double yk = work_y_[k];
        if (yk == 0.0)
            continue;
        for (std::size_t t = l_ptr_[k]; t < l_ptr_[k + 1]; ++t)
            work_y_[l_row_[t]] -= l_val_[t] * yk;
    }
    // Back substitution U z = y, then undo the column ordering.
    for (std::size_t k = n_; k-- > 0;) {
        const double zk = work_y_[k] / udiag_[k];
        work_y_[k] = zk;
        if (zk == 0.0)
            continue;
        for (std::size_t t = u_ptr_[k]; t < u_ptr_[k + 1]; ++t)
            work_y_[u_row_[t]] -= u_val_[t] * zk;
    }
    x.resize(n_);
    for (std::size_t k = 0; k < n_; ++k)
        x[q_[k]] = work_y_[k];
}

Vector SparseLu::solve(const Vector& b) const {
    Vector x;
    solve_into(b, x);
    return x;
}

double SparseLu::fill_ratio() const {
    if (pattern_nnz() == 0)
        return 0.0;
    return static_cast<double>(lu_nnz()) /
           static_cast<double>(pattern_nnz());
}

double SparseLu::pivot_spread_log10() const {
    TFET_EXPECTS(factored_);
    if (n_ == 0)
        return 0.0;
    double lo = std::fabs(udiag_[0]);
    double hi = lo;
    for (std::size_t i = 1; i < n_; ++i) {
        const double p = std::fabs(udiag_[i]);
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    if (lo == 0.0)
        return std::numeric_limits<double>::infinity();
    return std::log10(hi / lo);
}

} // namespace tfetsram::la
