#include "spice/mna.hpp"

#include "spice/eval_batch.hpp"
#include "spice/stats.hpp"

namespace tfetsram::spice {

namespace {

/// Shared binding order for every pass: the gmin shunts' diagonals, then
/// the devices in circuit order. Drops the recorded layout first, so a pass
/// that throws midway leaves the circuit unbound, never half-bound.
void bind_all(Circuit& circuit, SlotBinder& b) {
    circuit.workspace().layout = {};
    std::vector<Slot>& gmin = circuit.workspace().gmin_slots;
    gmin.resize(circuit.num_nodes() - 1);
    for (NodeId node = 1; node < circuit.num_nodes(); ++node)
        gmin[node - 1] = b.conductance(node, kGround).aa;
    for (const auto& dev : circuit.devices())
        dev->bind(b);
}

/// Bind the circuit to the dense layout (csr null) or to `csr`'s finalized
/// pattern, unless its slots already index that layout. The pattern must
/// cover every position the circuit stamps.
void bind_layout(Circuit& circuit, la::SparseMatrix* csr) {
    const std::size_t n = circuit.num_unknowns();
    const std::size_t extent = csr != nullptr ? csr->nnz() : n * n;
    SolveWorkspace::SlotLayout& layout = circuit.workspace().layout;
    if (layout.topology_revision == circuit.topology_revision() &&
        layout.csr == csr && layout.extent == extent)
        return;
    SlotBinder b = csr != nullptr ? SlotBinder(*csr, circuit.num_nodes())
                                  : SlotBinder::dense(circuit.num_nodes(), n);
    bind_all(circuit, b);
    layout = {circuit.topology_revision(), csr, extent};
}

/// Shared stamping order for every layout: gmin shunts first, then the
/// devices in circuit order. Every entry therefore accumulates the same
/// addends in the same sequence whichever layout the slots index, which is
/// what makes the dense and sparse assemblies bit-identical per entry.
void stamp_all(Circuit& circuit, Stamper& st, const AnalysisState& as,
               const la::Vector& x, double gmin) {
    if (gmin > 0.0)
        for (const Slot s : circuit.workspace().gmin_slots)
            st.add(s, gmin);

    for (const auto& dev : circuit.devices())
        dev->stamp(st, as, x);
}

} // namespace

void assemble(Circuit& circuit, const AnalysisState& as, const la::Vector& x,
              double gmin, la::Matrix& jac, la::Vector& rhs) {
    ++solver_stats().assemblies;
    circuit.prepare();
    const std::size_t n = circuit.num_unknowns();
    TFET_EXPECTS(x.size() == n);

    bind_layout(circuit, nullptr);

    if (jac.rows() != n || jac.cols() != n)
        jac = la::Matrix(n, n);
    else
        jac.set_zero();
    rhs.assign(n, 0.0);

    // One structure-of-arrays I-V sweep over all transistors before the
    // stamp loop; stamps then consume precomputed samples by slot. Both
    // layouts run it, preserving dense/sparse bitwise parity.
    circuit.eval_batch().evaluate(circuit, x);

    Stamper st(jac.data(), rhs.data());
    stamp_all(circuit, st, as, x, gmin);
}

void assemble(Circuit& circuit, const AnalysisState& as, const la::Vector& x,
              double gmin, la::SparseMatrix& jac, la::Vector& rhs) {
    ++solver_stats().assemblies;
    circuit.prepare();
    const std::size_t n = circuit.num_unknowns();
    TFET_EXPECTS(x.size() == n);
    TFET_EXPECTS(jac.finalized());
    TFET_EXPECTS(jac.rows() == n);

    bind_layout(circuit, &jac);

    jac.set_zero();
    rhs.assign(n, 0.0);

    circuit.eval_batch().evaluate(circuit, x);

    Stamper st(jac.value_data(), rhs.data());
    stamp_all(circuit, st, as, x, gmin);
}

void build_pattern(Circuit& circuit, la::SparseMatrix& jac) {
    circuit.prepare();
    const std::size_t n = circuit.num_unknowns();

    // Counting pass: the pattern pass below registers exactly this many
    // positions besides the diagonal, so the triplet store is sized once.
    SlotBinder counter(circuit.num_nodes(), n);
    bind_all(circuit, counter);

    jac.reset(n, n);
    jac.reserve_triplets(n + counter.positions());
    // Full diagonal: keeps a diagonal slot available for pivoting on every
    // row, branch rows included.
    for (std::size_t i = 0; i < n; ++i)
        jac.reserve_entry(i, i);
    SlotBinder recorder(jac, circuit.num_nodes());
    bind_all(circuit, recorder);
    jac.finalize_pattern();

    // Resolve every device slot into the frozen pattern.
    bind_layout(circuit, &jac);
}

} // namespace tfetsram::spice
