// Folded-source oracle. The dense Newton solve factors only the free block
// of the MNA system: every voltage source with one grounded terminal fixes
// its node, and its branch current is recovered from that node's KCL row
// (spice::SourceFold, docs/SOLVER.md "Folded grounded sources"). Here the
// folded solution is held against a full-system la::LuFactorization solve
// of the same assembled system, refined with long-double residuals to the
// system's exact solution x:
//
//  * node voltages within 1e-12 |x_i| + 1e-15 V;
//  * branch currents within 1e-12 of their KCL row's scale,
//    |rhs_j| + sum_c |J_jc x_c|, since hold currents near 1e-17 A are what
//    is left after rail currents cancel, plus the 1e-15 V floor carried
//    through the row's conductances (a bitline driver's 1 mS row turns it
//    into 1e-18 A);
//  * each plus 256 ulp of the unknown's componentwise sensitivity,
//    (|J^-1| (|J| |x| + |rhs|))_i: the error bound of any solve whose
//    backward error is 256 ulp per entry. DC systems assembled at a
//    transient state leave some nodes (a 9T read-port node) held by gmin
//    and off-state leakage only; there the unrefined full LU itself is off
//    by up to ~1000 ulp of sensitivity (7e-7 relative), the folded solve
//    by ~100.
//
// Checked at every accepted state of full transients, in DC,
// backward-Euler-first-step and trapezoidal mode, for every built-in spec
// (and `_outwardN`) and both example decks through hold, every write
// assist and every read assist; at DC solves under source stepping
// (source_scale < 1); and on small circuits for each classification rule.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"
#include "spice/workspace.hpp"
#include "sram/cell_spec.hpp"
#include "sram/designs.hpp"
#include "sram/operations.hpp"
#include "util/rng.hpp"

#ifndef TFETSRAM_SOURCE_DIR
#error "TFETSRAM_SOURCE_DIR must point at the repository root"
#endif

namespace tfetsram {
namespace {

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

constexpr double kGmin = 1e-12;
constexpr double kRelTol = 1e-12;
constexpr double kVoltFloor = 1e-15;
/// Componentwise backward error allowed on top: 256 ulp of every entry.
constexpr double kBackward = 256 * std::numeric_limits<double>::epsilon();

spice::SimContext dense_context() {
    spice::SimConfig cfg;
    cfg.mode = spice::SolverMode::kDense;
    return spice::SimContext(std::move(cfg));
}

/// No gmin shunt, for circuits checked against closed forms.
spice::SolverOptions exact_options() {
    spice::SolverOptions opts;
    opts.gmin = 0.0;
    return opts;
}

/// DC, the first transient step (backward Euler) and a trapezoidal step at
/// time t.
std::vector<std::pair<std::string, spice::AnalysisState>> analysis_modes(
    double t) {
    spice::AnalysisState dc;
    dc.mode = spice::AnalysisMode::kDc;
    dc.time = t;
    spice::AnalysisState be = dc;
    be.mode = spice::AnalysisMode::kTransient;
    be.dt = 1e-12;
    be.first_transient_step = true;
    spice::AnalysisState trap = be;
    trap.dt = 3e-12;
    trap.first_transient_step = false;
    return {{"dc", dc}, {"be", be}, {"trap", trap}};
}

/// Tolerance of branch unknown i: it is fixed by KCL at the node rows r
/// its column enters, so over those rows, the largest
///   kRelTol * (|rhs_r| + sum_c |J_rc x_c|) + kVoltFloor * sum_{c!=i} |J_rc|,
/// the row's scale under the relative bound plus the node-voltage floor
/// carried through the row's conductances.
double branch_tolerance(const la::Matrix& jac, const la::Vector& rhs,
                        const la::Vector& x, std::size_t i,
                        std::size_t node_unknowns) {
    double tol = 0.0;
    for (std::size_t r = 0; r < node_unknowns; ++r) {
        if (jac(r, i) == 0.0)
            continue;
        double scale = std::fabs(rhs[r]);
        double conductance = 0.0;
        for (std::size_t c = 0; c < x.size(); ++c) {
            scale += std::fabs(jac(r, c) * x[c]);
            if (c != i)
                conductance += std::fabs(jac(r, c));
        }
        tol = std::max(tol, kRelTol * scale + kVoltFloor * conductance);
    }
    return tol;
}

/// Componentwise sensitivity of the solution to relative perturbations of
/// every entry of the system: (|J^-1| (|J| |x| + |rhs|))_i.
la::Vector sensitivity(const la::Matrix& jac, const la::Vector& rhs,
                       const la::LuFactorization& lu, const la::Vector& x) {
    const std::size_t n = rhs.size();
    la::Vector scale(n);
    for (std::size_t k = 0; k < n; ++k) {
        double s = std::fabs(rhs[k]);
        for (std::size_t c = 0; c < n; ++c)
            s += std::fabs(jac(k, c) * x[c]);
        scale[k] = s;
    }
    la::Vector sens(n, 0.0);
    la::Vector unit(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        unit[k] = 1.0;
        const la::Vector col = lu.solve(unit); // column k of J^-1
        unit[k] = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            sens[i] += std::fabs(col[i]) * scale[k];
    }
    return sens;
}

/// The assembled system's solution to working precision: the full-system
/// LU solve `x` refined with residuals accumulated in long double.
la::Vector refine(const la::Matrix& jac, const la::Vector& rhs,
                  const la::LuFactorization& lu, la::Vector x) {
    const std::size_t n = rhs.size();
    la::Vector r(n);
    for (int step = 0; step < 3; ++step) {
        for (std::size_t i = 0; i < n; ++i) {
            long double acc = rhs[i];
            for (std::size_t c = 0; c < n; ++c)
                acc -= static_cast<long double>(jac(i, c)) * x[c];
            r[i] = static_cast<double>(acc);
        }
        const la::Vector d = lu.solve(r);
        for (std::size_t i = 0; i < n; ++i)
            x[i] += d[i];
    }
    return x;
}

/// Solve the assembled system both ways and compare. Empty on agreement,
/// else a description of the first mismatch.
std::string compare_solves(const spice::Circuit& c, const la::Matrix& jac,
                           const la::Vector& rhs) {
    spice::SourceFold fold;
    fold.classify(c);
    la::Vector folded;
    const bool ok = fold.solve(jac, rhs, folded);
    const std::optional<la::LuFactorization> lu =
        la::LuFactorization::factor(jac);
    if (ok != lu.has_value())
        return std::string("singularity differs: folded ") +
               (ok ? "solved" : "singular") + ", full " +
               (lu ? "solved" : "singular");
    if (!ok)
        return {};
    const la::Vector full = lu->solve(rhs);
    const la::Vector exact = refine(jac, rhs, *lu, full);
    const la::Vector sens = sensitivity(jac, rhs, *lu, exact);
    const std::size_t node_unknowns = c.num_nodes() - 1;
    for (std::size_t i = 0; i < folded.size(); ++i) {
        const double want = exact[i];
        const double tol =
            (i < node_unknowns
                 ? kRelTol * std::fabs(want) + kVoltFloor
                 : branch_tolerance(jac, rhs, exact, i, node_unknowns)) +
            kBackward * sens[i];
        if (!(std::fabs(folded[i] - want) <= tol)) {
            std::ostringstream os;
            os.precision(17);
            os << (i < node_unknowns ? "node" : "branch") << " unknown " << i
               << ": folded " << folded[i] << ", exact " << want << ", full "
               << full[i] << ", tol " << tol;
            return os.str();
        }
    }
    return {};
}

/// Assembles one circuit at (x, t) in every analysis mode and compares.
class Oracle {
public:
    explicit Oracle(spice::Circuit& circuit) : c_(circuit) {}

    bool check(const la::Vector& x, double t, const std::string& what,
               double source_scale = 1.0) {
        for (auto [mode, as] : analysis_modes(t)) {
            as.source_scale = source_scale;
            la::Matrix jac;
            la::Vector rhs;
            spice::assemble(c_, as, x, kGmin, jac, rhs);
            const std::string err = compare_solves(c_, jac, rhs);
            if (!err.empty()) {
                ADD_FAILURE() << what << " " << mode << " at t = " << t
                              << ": " << err;
                return false;
            }
            ++checks_;
        }
        return true;
    }

    spice::StopCondition every_step(std::string what) {
        return [this, what = std::move(what)](double t, const la::Vector& x) {
            return !check(x, t, what);
        };
    }

    [[nodiscard]] std::size_t checks() const { return checks_; }

private:
    spice::Circuit& c_;
    std::size_t checks_ = 0;
};

void run_checked(sram::SramCell& cell, const la::Vector& x0, double t_end,
                 const spice::SimContext& ctx, const std::string& what) {
    Oracle oracle(cell.circuit);
    ASSERT_TRUE(oracle.check(x0, 0.0, what + " guess"));
    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, ctx, {}, t_end, oracle.every_step(what), &x0);
    EXPECT_TRUE(tr.completed) << what << ": " << tr.message;
    EXPECT_GT(oracle.checks(), 3 * 10u) << what << ": too few steps checked";
}

/// DC solves under source stepping: Newton at source_scale < 1 from a cold
/// start, checked at its converged point.
void check_source_stepping(sram::SramCell& cell, const spice::SimContext& ctx,
                           const std::string& name) {
    spice::Circuit& c = cell.circuit;
    c.prepare();
    Oracle oracle(c);
    la::Vector x(c.num_unknowns(), 0.0);
    for (const double lambda : {0.05, 0.35, 0.7}) {
        spice::AnalysisState as;
        as.source_scale = lambda;
        const int iters =
            spice::detail::newton_raphson(c, as, ctx, {}, kGmin, x);
        EXPECT_GT(iters, 0) << name << " source_scale " << lambda;
        oracle.check(x, 0.0, name + " source-stepping", lambda);
    }
}

void check_cell_programs(const sram::CellSpec& spec, sram::AccessDevice access,
                         const std::string& name) {
    const spice::SimContext ctx = dense_context();
    const spice::ScopedContext bind(ctx);
    sram::CellConfig cfg;
    cfg.access = access;
    cfg.models = models();
    sram::SramCell cell = sram::instantiate_spec(spec, cfg);
    const spice::SolverOptions opts;

    const auto hold = [&](bool q_high) {
        sram::program_hold(cell);
        const sram::HoldState hs = sram::solve_hold_state(cell, q_high, opts);
        EXPECT_TRUE(hs.converged) << name;
        return hs.x;
    };

    {
        const la::Vector x0 = hold(true);
        program_hold(cell);
        run_checked(cell, x0, 200e-12, ctx, name + " hold");
        check_source_stepping(cell, ctx, name);
    }

    const bool value = sram::preferred_write_value(cell);
    std::vector<sram::Assist> writes{sram::Assist::kNone};
    writes.insert(writes.end(), std::begin(sram::kWriteAssists),
                  std::end(sram::kWriteAssists));
    for (const sram::Assist a : writes) {
        const la::Vector x0 = hold(!value);
        const sram::OperationWindow w =
            sram::program_write(cell, value, 100e-12, a);
        run_checked(cell, x0, w.t_end, ctx,
                    name + " write " + sram::to_string(a));
    }

    std::vector<sram::Assist> reads{sram::Assist::kNone};
    reads.insert(reads.end(), std::begin(sram::kReadAssists),
                 std::end(sram::kReadAssists));
    for (const sram::Assist a : reads) {
        sram::program_hold(cell);
        const sram::ReadSetup probe = sram::program_read(cell, 100e-12, a);
        const la::Vector x0 = hold(probe.q_high_init);
        const sram::ReadSetup rs = sram::program_read(cell, 100e-12, a);
        run_checked(cell, x0, rs.window.t_end, ctx,
                    name + " read " + sram::to_string(a));
    }
}

// ------------------------------------------------------------- cells

TEST(SourceFold, EveryBuiltinSpecThroughEveryAssistProgram) {
    for (const sram::CellSpec& spec : sram::builtin_specs()) {
        check_cell_programs(spec, sram::AccessDevice::kInwardP, spec.id);
        if (spec.wl_follows_access)
            check_cell_programs(spec, sram::AccessDevice::kOutwardN,
                                spec.id + "_outwardN");
    }
}

TEST(SourceFold, DeckLoadedSpecsThroughEveryAssistProgram) {
    for (const char* deck : {"tfet_sram_8t", "tfet_sram_9t"}) {
        const sram::CellSpec spec = sram::load_cell_spec(
            std::string(TFETSRAM_SOURCE_DIR) + "/examples/netlists/" + deck +
            ".sp");
        check_cell_programs(spec, sram::AccessDevice::kInwardP, deck);
    }
}

TEST(SourceFold, SixTransistorCellFactorsFourOfFourteenUnknowns) {
    const spice::SimContext ctx = dense_context();
    sram::SramCell cell =
        sram::build_cell(sram::proposed_design(2.0, models()).config);
    sram::program_hold(cell);
    ASSERT_TRUE(spice::solve_dc(cell.circuit, ctx, {}).converged);
    const spice::SourceFold& fold = cell.circuit.workspace().fold;
    EXPECT_EQ(cell.circuit.num_unknowns(), 14u);
    EXPECT_EQ(fold.unknowns(), 14u);
    EXPECT_EQ(fold.free_unknowns(), 4u);
    // One factorization per Newton iteration, as with the full system.
    EXPECT_EQ(ctx.stats().lu_factorizations, ctx.stats().nr_iterations);
}

// ------------------------------------------------------ classification

/// Assemble `c` in DC at a random iterate and compare both solves.
void expect_agreement(spice::Circuit& c, std::uint64_t seed,
                      const std::string& what) {
    c.prepare();
    Rng rng(seed);
    la::Vector x(c.num_unknowns());
    for (double& v : x)
        v = rng.uniform(-1.0, 1.0);
    Oracle oracle(c);
    EXPECT_TRUE(oracle.check(x, 0.0, what));
}

std::size_t classified_free_unknowns(const spice::Circuit& c) {
    spice::SourceFold fold;
    fold.classify(c);
    return fold.free_unknowns();
}

TEST(SourceFoldRules, PosGroundedSourceDrivesItsNodeNegative) {
    spice::Circuit c;
    const spice::NodeId a = c.add_node("a");
    const spice::NodeId b = c.add_node("b");
    c.add_vsource("Vneg", spice::kGround, a, spice::Waveform::dc(0.6));
    c.add_resistor("Rab", a, b, 1e3);
    c.add_resistor("Rb", b, spice::kGround, 3e3);
    c.add_isource("Ib", spice::kGround, b, spice::Waveform::dc(1e-5));
    EXPECT_EQ(classified_free_unknowns(c), 1u);
    expect_agreement(c, 1, "pos-grounded");

    const spice::SimContext ctx = dense_context();
    const spice::DcResult dc = spice::solve_dc(c, ctx, exact_options());
    ASSERT_TRUE(dc.converged);
    EXPECT_DOUBLE_EQ(dc.x[a - 1], -0.6);
    // KCL at b: (va - vb)/1k + 1e-5 = vb/3k.
    const double vb = (-0.6 / 1e3 + 1e-5) / (1.0 / 1e3 + 1.0 / 3e3);
    EXPECT_NEAR(dc.x[b - 1], vb, 1e-12);
    // The source sinks the current Rab carries out of a.
    EXPECT_NEAR(dc.x[2], (dc.x[a - 1] - vb) / 1e3, 1e-15);
}

TEST(SourceFoldRules, FloatingSourceStaysABranchUnknown) {
    spice::Circuit c;
    const spice::NodeId a = c.add_node("a");
    const spice::NodeId b = c.add_node("b");
    c.add_vsource("Va", a, spice::kGround, spice::Waveform::dc(0.8));
    c.add_vsource("Vab", b, a, spice::Waveform::dc(0.3));
    c.add_resistor("Rb", b, spice::kGround, 2e3);
    // Unknowns a, b, I(Va), I(Vab): a and I(Va) fold; b and I(Vab) stay.
    EXPECT_EQ(c.num_unknowns(), 4u);
    EXPECT_EQ(classified_free_unknowns(c), 2u);
    expect_agreement(c, 2, "floating");

    const spice::SimContext ctx = dense_context();
    const spice::DcResult dc = spice::solve_dc(c, ctx, exact_options());
    ASSERT_TRUE(dc.converged);
    EXPECT_NEAR(dc.x[b - 1], 1.1, 1e-15);
    EXPECT_NEAR(dc.x[2], -1.1 / 2e3, 1e-18); // Va sources Rb's current
}

TEST(SourceFoldRules, SecondSourceOnAKnownNodeIsSingularAsInFullMna) {
    spice::Circuit c;
    const spice::NodeId a = c.add_node("a");
    c.add_vsource("V1", a, spice::kGround, spice::Waveform::dc(1.0));
    c.add_vsource("V2", a, spice::kGround, spice::Waveform::dc(1.0));
    c.add_resistor("R", a, spice::kGround, 1e3);
    // V1 folds; V2 stays a branch whose row and column are empty in the
    // free block.
    EXPECT_EQ(classified_free_unknowns(c), 1u);
    c.prepare();
    la::Matrix jac;
    la::Vector rhs;
    spice::assemble(c, spice::AnalysisState{}, la::Vector(3, 0.0), kGmin, jac,
                    rhs);
    EXPECT_FALSE(la::solve_linear(jac, rhs).has_value());
    spice::SourceFold fold;
    fold.classify(c);
    la::Vector x;
    EXPECT_FALSE(fold.solve(jac, rhs, x));
    EXPECT_EQ(compare_solves(c, jac, rhs), "");
}

TEST(SourceFoldRules, AllNodesKnownLeavesAnEmptyBlock) {
    spice::Circuit c;
    const spice::NodeId a = c.add_node("a");
    const spice::NodeId b = c.add_node("b");
    c.add_vsource("Va", a, spice::kGround, spice::Waveform::dc(0.8));
    c.add_vsource("Vb", spice::kGround, b, spice::Waveform::dc(0.2));
    c.add_resistor("Rab", a, b, 1e3);
    c.add_capacitor("Ca", a, spice::kGround, 1e-15);
    EXPECT_EQ(classified_free_unknowns(c), 0u);
    expect_agreement(c, 3, "all known");

    const spice::SimContext ctx = dense_context();
    const spice::DcResult dc = spice::solve_dc(c, ctx, exact_options());
    ASSERT_TRUE(dc.converged);
    EXPECT_EQ(dc.x[a - 1], 0.8);
    EXPECT_EQ(dc.x[b - 1], -0.2);
    EXPECT_NEAR(dc.x[2], -1e-3, 1e-15);
    EXPECT_NEAR(dc.x[3], -1e-3, 1e-15);
    const spice::TransientResult tr =
        spice::solve_transient(c, ctx, exact_options(), 1e-11);
    EXPECT_TRUE(tr.completed) << tr.message;
}

TEST(SourceFoldRules, CircuitThatGainsDevicesIsReclassified) {
    const spice::SimContext ctx = dense_context();
    sram::SramCell cell =
        sram::build_cell(sram::proposed_design(2.0, models()).config);
    sram::program_hold(cell);
    spice::Circuit& c = cell.circuit;
    ASSERT_TRUE(spice::solve_dc(c, ctx, {}).converged);
    EXPECT_EQ(c.workspace().fold.free_unknowns(), 4u);

    // A free node: one more free unknown.
    const spice::NodeId tap = c.add_node("tap");
    c.add_resistor("Rtap", c.node("q"), tap, 5e4);
    c.add_resistor("Rgnd", tap, spice::kGround, 5e4);
    const spice::DcResult grown = spice::solve_dc(c, ctx, {});
    ASSERT_TRUE(grown.converged);
    EXPECT_EQ(c.workspace().fold.unknowns(), 15u);
    EXPECT_EQ(c.workspace().fold.free_unknowns(), 5u);
    expect_agreement(c, 4, "grown by a node");

    // A grounded source on it folds that node and its branch.
    c.add_vsource("Vtap", tap, spice::kGround, spice::Waveform::dc(0.1));
    const spice::DcResult driven = spice::solve_dc(c, ctx, {}, 0.0, &grown.x);
    ASSERT_TRUE(driven.converged);
    EXPECT_EQ(c.workspace().fold.unknowns(), 16u);
    EXPECT_EQ(c.workspace().fold.free_unknowns(), 4u);
    EXPECT_EQ(driven.x[tap - 1], 0.1);
    expect_agreement(c, 5, "grown by a source");
}

TEST(SourceFoldRules, SingularFreeBlockFailsTheIteration) {
    // Node f hangs off a capacitor only: in DC with no shunt its row and
    // column are empty, so full MNA and the free block are both singular.
    spice::Circuit c;
    const spice::NodeId a = c.add_node("a");
    const spice::NodeId f = c.add_node("f");
    c.add_vsource("Va", a, spice::kGround, spice::Waveform::dc(0.8));
    c.add_capacitor("Caf", a, f, 1e-15);
    c.prepare();
    la::Matrix jac;
    la::Vector rhs;
    spice::assemble(c, spice::AnalysisState{}, la::Vector(3, 0.0), 0.0, jac,
                    rhs);
    EXPECT_FALSE(la::solve_linear(jac, rhs).has_value());
    EXPECT_EQ(compare_solves(c, jac, rhs), "");

    const spice::SimContext ctx = dense_context();
    la::Vector x(c.num_unknowns(), 0.0);
    EXPECT_EQ(spice::detail::newton_raphson(c, spice::AnalysisState{}, ctx,
                                            {}, 0.0, x),
              -1);
    EXPECT_EQ(ctx.stats().lu_factorizations, 1u);
    EXPECT_EQ(ctx.stats().nr_iterations, 1u);
}

} // namespace
} // namespace tfetsram
