#include "reference_assembly.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <stdexcept>

#include "spice/solution.hpp"

namespace tfetsram::testing_support {

namespace {

using spice::AnalysisMode;
using spice::AnalysisState;
using spice::Integrator;
using spice::NodeId;

/// The (row, col)-addressed stamper: maps node/branch ids to unknown
/// indices (ground eliminated) and routes each Jacobian accumulation to a
/// caller-supplied sink; RHS writes go straight into `rhs`.
class RowColStamper {
public:
    using Sink = std::function<void(std::size_t, std::size_t, double)>;

    RowColStamper(Sink sink, la::Vector& rhs, std::size_t num_nodes)
        : sink_(std::move(sink)), rhs_(rhs), num_nodes_(num_nodes) {}

    void add_conductance(NodeId a, NodeId b, double g) {
        const std::size_t ia = idx(a);
        const std::size_t ib = idx(b);
        if (ia != npos)
            sink_(ia, ia, g);
        if (ib != npos)
            sink_(ib, ib, g);
        if (ia != npos && ib != npos) {
            sink_(ia, ib, -g);
            sink_(ib, ia, -g);
        }
    }

    void add_current(NodeId from, NodeId to, double i) {
        const std::size_t ifrom = idx(from);
        const std::size_t ito = idx(to);
        if (ifrom != npos)
            rhs_.at(ifrom) -= i;
        if (ito != npos)
            rhs_.at(ito) += i;
    }

    void add_transconductance(NodeId out_from, NodeId out_to,
                              NodeId ctrl_pos, NodeId ctrl_neg, double g) {
        const std::size_t iof = idx(out_from);
        const std::size_t iot = idx(out_to);
        const std::size_t icp = idx(ctrl_pos);
        const std::size_t icn = idx(ctrl_neg);
        if (iof != npos) {
            if (icp != npos)
                sink_(iof, icp, g);
            if (icn != npos)
                sink_(iof, icn, -g);
        }
        if (iot != npos) {
            if (icp != npos)
                sink_(iot, icp, -g);
            if (icn != npos)
                sink_(iot, icn, g);
        }
    }

    void stamp_voltage_source(std::size_t branch, NodeId pos, NodeId neg,
                              double volts) {
        const std::size_t ib = (num_nodes_ - 1) + branch;
        const std::size_t ip = idx(pos);
        const std::size_t in = idx(neg);
        if (ip != npos) {
            sink_(ip, ib, 1.0);
            sink_(ib, ip, 1.0);
        }
        if (in != npos) {
            sink_(in, ib, -1.0);
            sink_(ib, in, -1.0);
        }
        rhs_.at(ib) += volts;
    }

private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    [[nodiscard]] std::size_t idx(NodeId n) const {
        if (n >= num_nodes_)
            throw std::out_of_range("reference stamper: node out of range");
        return n == spice::kGround ? npos : n - 1;
    }

    Sink sink_;
    la::Vector& rhs_;
    std::size_t num_nodes_;
};

/// Companion model of a capacitor (or a transistor's internal one):
/// trapezoidal after the first step, backward Euler on it.
void stamp_companion(RowColStamper& st, const AnalysisState& as, NodeId a,
                     NodeId b, double farads, double v_prev, double i_prev) {
    const bool use_trap = as.integrator == Integrator::kTrapezoidal &&
                          !as.first_transient_step;
    double geq = 0.0;
    double ieq = 0.0;
    if (use_trap) {
        geq = 2.0 * farads / as.dt;
        ieq = -(geq * v_prev + i_prev);
    } else {
        geq = farads / as.dt;
        ieq = -geq * v_prev;
    }
    st.add_conductance(a, b, geq);
    st.add_current(a, b, ieq);
}

/// The Transistor's channel floor on gds (spice/transistor.cpp).
constexpr double kGdsFloor = 1e-15;

void stamp_device(const spice::Device& dev, RowColStamper& st,
                  const AnalysisState& as, const la::Vector& x) {
    using spice::branch_voltage;
    std::vector<double> state;
    dev.save_state(state);

    if (const auto* r = dynamic_cast<const spice::Resistor*>(&dev)) {
        st.add_conductance(r->a(), r->b(), 1.0 / r->resistance());
    } else if (const auto* c = dynamic_cast<const spice::Capacitor*>(&dev)) {
        if (as.mode == AnalysisMode::kDc)
            return;
        stamp_companion(st, as, c->a(), c->b(), c->capacitance(), state.at(0),
                        state.at(1));
    } else if (const auto* v =
                   dynamic_cast<const spice::VoltageSource*>(&dev)) {
        st.stamp_voltage_source(v->branch(), v->pos(), v->neg(),
                                v->waveform().at(as.time) * as.source_scale);
    } else if (const auto* i =
                   dynamic_cast<const spice::CurrentSource*>(&dev)) {
        st.add_current(i->from(), i->to(),
                       i->waveform().at(as.time) * as.source_scale);
    } else if (const auto* l =
                   dynamic_cast<const spice::LinearizedLoad*>(&dev)) {
        if (l->scale() == 0.0)
            return;
        st.add_conductance(l->node(), spice::kGround, l->scale() * l->g());
        st.add_current(l->node(), spice::kGround,
                       l->scale() * (l->i0() - l->g() * l->bias()));
    } else if (const auto* s = dynamic_cast<const spice::TimedSwitch*>(&dev)) {
        st.add_conductance(s->a(), s->b(), 1.0 / s->resistance_at(as.time));
    } else if (const auto* t = dynamic_cast<const spice::Transistor*>(&dev)) {
        const NodeId d = t->drain();
        const NodeId g = t->gate();
        const NodeId src = t->source();
        const double w = t->width_um();
        const double vgs = branch_voltage(x, g, src);
        const double vds = branch_voltage(x, d, src);
        const spice::IvSample iv = t->model().iv(vgs, vds);
        const double ids = iv.ids * w;
        const double gm = iv.gm * w;
        const double gds = std::max(iv.gds * w, kGdsFloor);
        st.add_transconductance(d, src, g, src, gm);
        st.add_conductance(d, src, gds);
        st.add_current(d, src, ids - gm * vgs - gds * vds);
        if (as.mode == AnalysisMode::kTransient) {
            const spice::CvSample cv = t->model().cv(vgs, vds);
            stamp_companion(st, as, g, src, cv.cgs * w, state.at(0),
                            state.at(1));
            stamp_companion(st, as, g, d, cv.cgd * w, state.at(2),
                            state.at(3));
        }
    } else {
        ADD_FAILURE() << "reference assembly: unknown device type "
                      << dev.label();
    }
}

void reference_stamp_all(spice::Circuit& circuit, RowColStamper& st,
                         const AnalysisState& as, const la::Vector& x,
                         double gmin) {
    if (gmin > 0.0)
        for (NodeId node = 1; node < circuit.num_nodes(); ++node)
            st.add_conductance(node, spice::kGround, gmin);
    for (const auto& dev : circuit.devices())
        stamp_device(*dev, st, as, x);
}

} // namespace

void reference_assemble(spice::Circuit& circuit, const AnalysisState& as,
                        const la::Vector& x, double gmin, la::Matrix& jac,
                        la::Vector& rhs) {
    circuit.prepare();
    const std::size_t n = circuit.num_unknowns();
    jac = la::Matrix(n, n);
    rhs.assign(n, 0.0);
    RowColStamper st(
        [&jac](std::size_t r, std::size_t c, double v) { jac(r, c) += v; },
        rhs, circuit.num_nodes());
    reference_stamp_all(circuit, st, as, x, gmin);
}

void reference_assemble(spice::Circuit& circuit, const AnalysisState& as,
                        const la::Vector& x, double gmin,
                        const la::SparseMatrix& pattern,
                        std::vector<double>& values, la::Vector& rhs) {
    circuit.prepare();
    const std::size_t n = circuit.num_unknowns();
    values.assign(pattern.nnz(), 0.0);
    rhs.assign(n, 0.0);
    const auto& rp = pattern.row_ptr();
    const auto& ci = pattern.col_idx();
    RowColStamper st(
        [&](std::size_t r, std::size_t c, double v) {
            const auto first = ci.begin() + static_cast<std::ptrdiff_t>(rp[r]);
            const auto last =
                ci.begin() + static_cast<std::ptrdiff_t>(rp[r + 1]);
            const auto it = std::lower_bound(first, last, c);
            if (it == last || *it != c) {
                ADD_FAILURE() << "reference write outside the pattern at ("
                              << r << ", " << c << ")";
                return;
            }
            values[static_cast<std::size_t>(it - ci.begin())] += v;
        },
        rhs, circuit.num_nodes());
    reference_stamp_all(circuit, st, as, x, gmin);
}

std::vector<std::pair<std::size_t, std::size_t>>
reference_pattern(spice::Circuit& circuit) {
    circuit.prepare();
    const std::size_t n = circuit.num_unknowns();
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (std::size_t i = 0; i < n; ++i)
        seen.emplace(i, i);
    la::Vector rhs(n, 0.0);
    RowColStamper st(
        [&seen](std::size_t r, std::size_t c, double) { seen.emplace(r, c); },
        rhs, circuit.num_nodes());
    const la::Vector x(n, 0.0);
    AnalysisState dc;
    dc.mode = AnalysisMode::kDc;
    reference_stamp_all(circuit, st, dc, x, 1.0);
    AnalysisState tr;
    tr.mode = AnalysisMode::kTransient;
    tr.dt = 1e-12;
    tr.first_transient_step = true;
    reference_stamp_all(circuit, st, tr, x, 1.0);
    return {seen.begin(), seen.end()};
}

} // namespace tfetsram::testing_support
