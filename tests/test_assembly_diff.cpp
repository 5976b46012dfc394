// Compiled-assembly oracle. spice::assemble writes every device stamp
// through slots bound once per topology revision and layout; the reference
// in tests/support/reference_assembly.cpp keeps the (row, col)-addressed
// stamper and its own copy of each device's stamp equations. Both must
// produce the same bits: the dense Jacobian, the CSR values over the frozen
// pattern, the RHS, and the pattern itself.
//
//  * Every built-in and deck-loaded cell spec, through hold, every write
//    assist and every read assist, checked at every accepted state of the
//    full transient in DC, backward-Euler-first-step and trapezoidal mode.
//  * The flat 16x8 array through a write transient, and the 64x64 array at
//    its hold state.
//  * An array carrying a mixed-level partition's lumped bitline loads
//    (spice::LinearizedLoad), through a read transient.
//  * Rebinding: a circuit that grows after a solve, one circuit assembled
//    alternately into dense and CSR targets, and a device with an
//    out-of-range node, which fails at bind before any write.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "array/array.hpp"
#include "la/matrix.hpp"
#include "la/sparse_matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/mna.hpp"
#include "spice/transient.hpp"
#include "sram/cell_spec.hpp"
#include "sram/designs.hpp"
#include "sram/operations.hpp"
#include "support/reference_assembly.hpp"
#include "util/rng.hpp"

#ifndef TFETSRAM_SOURCE_DIR
#error "TFETSRAM_SOURCE_DIR must point at the repository root"
#endif

namespace tfetsram {
namespace {

using testing_support::reference_assemble;
using testing_support::reference_pattern;

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

constexpr double kGmin = 1e-12;

/// Largest system also checked through a dense target.
constexpr std::size_t kDenseLimit = 256;

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const la::Matrix& a, const la::Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(double)) == 0;
}

spice::SimContext mode_context(spice::SolverMode mode) {
    spice::SimConfig cfg;
    cfg.mode = mode;
    return spice::SimContext(std::move(cfg));
}

/// The three analysis states every check assembles at time t: DC, the
/// first transient step (backward Euler) and a trapezoidal step.
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

/// Holds one circuit's assemblies against the reference. The CSR target
/// is the oracle's own build_pattern matrix, so every check after a solver
/// step also rebinds the circuit away from the solver's layout and back.
class Oracle {
public:
    explicit Oracle(spice::Circuit& circuit) : c_(circuit) {
        spice::build_pattern(c_, csr_);
        const auto want = reference_pattern(c_);
        std::vector<std::pair<std::size_t, std::size_t>> got;
        for (std::size_t r = 0; r < csr_.rows(); ++r)
            for (std::size_t k = csr_.row_ptr()[r]; k < csr_.row_ptr()[r + 1];
                 ++k)
                got.emplace_back(r, csr_.col_idx()[k]);
        EXPECT_EQ(got, want) << "frozen pattern";
    }

    /// Compare every layout in every analysis mode at (x, t). False (with
    /// a test failure) on the first mismatch.
    bool check(const la::Vector& x, double t, const std::string& what) {
        for (const auto& [mode, as] : analysis_modes(t)) {
            const std::string where =
                what + " " + mode + " at t = " + std::to_string(t);
            la::Vector rhs;
            la::Vector ref_rhs;
            if (c_.num_unknowns() <= kDenseLimit) {
                la::Matrix jac;
                la::Matrix ref_jac;
                spice::assemble(c_, as, x, kGmin, jac, rhs);
                reference_assemble(c_, as, x, kGmin, ref_jac, ref_rhs);
                if (!same_bits(jac, ref_jac) || !same_bits(rhs, ref_rhs)) {
                    ADD_FAILURE() << "dense assembly differs: " << where;
                    return false;
                }
            }
            std::vector<double> ref_vals;
            spice::assemble(c_, as, x, kGmin, csr_, rhs);
            reference_assemble(c_, as, x, kGmin, csr_, ref_vals, ref_rhs);
            if (!same_bits(csr_.values(), ref_vals) ||
                !same_bits(rhs, ref_rhs)) {
                ADD_FAILURE() << "CSR assembly differs: " << where;
                return false;
            }
            ++checks_;
        }
        return true;
    }

    /// Stop condition checking every accepted state; stops the run at the
    /// first mismatch.
    spice::StopCondition every_step(std::string what) {
        return [this, what = std::move(what)](double t, const la::Vector& x) {
            return !check(x, t, what);
        };
    }

    [[nodiscard]] std::size_t checks() const { return checks_; }

private:
    spice::Circuit& c_;
    la::SparseMatrix csr_;
    std::size_t checks_ = 0;
};

/// Transient of the cell's current program from `x0`, checked at every
/// accepted state (the t = 0 operating point included).
void run_checked(sram::SramCell& cell, const la::Vector& x0, double t_end,
                 const spice::SimContext& ctx, const std::string& what) {
    Oracle oracle(cell.circuit);
    ASSERT_TRUE(oracle.check(x0, 0.0, what + " guess"));
    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, ctx, {}, t_end, oracle.every_step(what), &x0);
    EXPECT_TRUE(tr.completed) << what << ": " << tr.message;
    EXPECT_GT(oracle.checks(), 3 * 10u) << what << ": too few steps checked";
}

void check_cell_programs(const sram::CellSpec& spec, sram::AccessDevice access,
                         const std::string& name) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kDense);
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

TEST(AssemblyDiff, EveryBuiltinSpecThroughEveryAssistProgram) {
    for (const sram::CellSpec& spec : sram::builtin_specs()) {
        check_cell_programs(spec, sram::AccessDevice::kInwardP, spec.id);
        if (spec.wl_follows_access)
            check_cell_programs(spec, sram::AccessDevice::kOutwardN,
                                spec.id + "_outwardN");
    }
}

TEST(AssemblyDiff, DeckLoadedSpecsThroughEveryAssistProgram) {
    for (const char* deck : {"tfet_sram_8t", "tfet_sram_9t"}) {
        const sram::CellSpec spec = sram::load_cell_spec(
            std::string(TFETSRAM_SOURCE_DIR) + "/examples/netlists/" + deck +
            ".sp");
        check_cell_programs(spec, sram::AccessDevice::kInwardP, deck);
    }
}

// ------------------------------------------------------------- arrays

array::ArrayConfig array_config(std::size_t rows, std::size_t cols) {
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

/// The array's hold state with `data` stored: rails at their quiescent
/// levels and each cell's storage nodes imposed, then solved.
la::Vector hold_state(array::SramArray& arr,
                      const std::vector<std::vector<bool>>& data,
                      const spice::SimContext& ctx) {
    spice::Circuit& c = arr.circuit();
    const double vdd = arr.config().cell.vdd;
    la::Vector guess(c.num_unknowns(), 0.0);
    for (spice::NodeId id = 1; id < c.num_nodes(); ++id) {
        const std::string& name = c.node_name(id);
        if (name == "vdd" || name.rfind("bl", 0) == 0)
            guess[id - 1] = vdd;
    }
    for (std::size_t r = 0; r < arr.rows(); ++r) {
        for (std::size_t col = 0; col < arr.cols(); ++col) {
            const std::string cid = std::to_string(r) + "_" +
                                    std::to_string(col);
            guess[c.node("q" + cid) - 1] = data[r][col] ? vdd : 0.0;
            guess[c.node("qb" + cid) - 1] = data[r][col] ? 0.0 : vdd;
        }
    }
    const spice::DcResult dc = spice::solve_dc(c, ctx, {}, 0.0, &guess);
    EXPECT_TRUE(dc.converged);
    return dc.x;
}

TEST(AssemblyDiff, FlatArrayWriteTransient16x8) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kAuto);
    const spice::ScopedContext bind(ctx);
    array::SramArray arr(array_config(16, 8), &ctx);
    const auto data = checker(16, 8);
    ASSERT_TRUE(arr.initialize(data));
    const la::Vector x0 = hold_state(arr, data, ctx);
    // Leaves the write program on the array's sources.
    ASSERT_TRUE(arr.write(3, 2, !data[3][2]).ok);

    Oracle oracle(arr.circuit());
    ASSERT_TRUE(oracle.check(x0, 0.0, "16x8 hold"));
    const double t_end =
        array::write_programs(arr.config(), !data[3][2]).access.window.t_end;
    const spice::TransientResult tr = spice::solve_transient(
        arr.circuit(), ctx, {}, t_end, oracle.every_step("16x8 write"), &x0);
    EXPECT_TRUE(tr.completed) << tr.message;
    EXPECT_GT(oracle.checks(), 3 * 10u);
}

TEST(AssemblyDiff, FlatArrayHoldState64x64) {
    const spice::SimContext ctx = mode_context(spice::SolverMode::kAuto);
    const spice::ScopedContext bind(ctx);
    array::SramArray arr(array_config(64, 64), &ctx);
    const auto data = checker(64, 64);
    ASSERT_TRUE(arr.initialize(data));
    Oracle oracle(arr.circuit());
    EXPECT_TRUE(oracle.check(hold_state(arr, data, ctx), 0.0, "64x64 hold"));

    Rng rng(64);
    la::Vector x(arr.circuit().num_unknowns());
    for (double& v : x)
        v = rng.uniform(0.0, 0.8);
    EXPECT_TRUE(oracle.check(x, 0.0, "64x64 random"));
}

TEST(AssemblyDiff, PartitionWithLumpedBitlineLoads) {
    // The mixed-level engine's partitions are flat rails plus promoted
    // cells plus one LinearizedLoad per bitline (src/hier/mixed_array.cpp);
    // build that shape on a small flat array and check a read transient.
    const spice::SimContext ctx = mode_context(spice::SolverMode::kSparse);
    const spice::ScopedContext bind(ctx);
    array::SramArray arr(array_config(4, 2), &ctx);
    spice::Circuit& c = arr.circuit();
    for (std::size_t col = 0; col < 2; ++col) {
        const std::string id = std::to_string(col);
        c.add_linearized_load("Lbl" + id, c.node("bl" + id))
            .set_load(60.0, 2e-12, 3e-11, 0.8);
        c.add_linearized_load("Lblb" + id, c.node("blb" + id))
            .set_load(60.0, 1e-12, 2e-11, 0.75);
    }
    // A load that is switched off binds its slots but writes nothing.
    c.add_linearized_load("Loff", c.node("bl0"));
    const auto data = checker(4, 2);
    ASSERT_TRUE(arr.initialize(data));
    const la::Vector x0 = hold_state(arr, data, ctx);
    (void)arr.read(1, 1); // leaves the read program on the sources

    Oracle oracle(c);
    const double t_end = array::read_programs(arr.config()).access.window.t_end;
    const spice::TransientResult tr = spice::solve_transient(
        c, ctx, {}, t_end, oracle.every_step("partition read"), &x0);
    EXPECT_TRUE(tr.completed) << tr.message;
    EXPECT_GT(oracle.checks(), 3 * 10u);
}

// ------------------------------------------------------------- rebinding

/// A cell whose program and state are fixed, for comparing two circuits.
sram::SramCell held_cell() {
    sram::SramCell cell =
        sram::build_cell(sram::proposed_design(0.8, models()).config);
    sram::program_hold(cell);
    return cell;
}

/// Grow a cell's circuit by one node and two devices (a topology revision).
void grow(spice::Circuit& c) {
    const spice::NodeId tap = c.add_node("tap");
    c.add_resistor("Rtap", c.node("q"), tap, 5e4);
    c.add_capacitor("Ctap", tap, spice::kGround, 2e-16);
}

TEST(AssemblyRebind, GrownCircuitAssemblesLikeAFreshlyBuiltOne) {
    for (const spice::SolverMode mode :
         {spice::SolverMode::kDense, spice::SolverMode::kSparse}) {
        const spice::SimContext ctx = mode_context(mode);
        const spice::ScopedContext bind(ctx);
        const std::string what = mode == spice::SolverMode::kDense
                                     ? "dense"
                                     : "sparse";
        sram::SramCell solved = held_cell();
        ASSERT_TRUE(spice::solve_dc(solved.circuit, ctx, {}).converged) << what;
        grow(solved.circuit);
        sram::SramCell fresh = held_cell();
        grow(fresh.circuit);

        // The solver's own path: the grown circuit's next solve rebinds
        // its workspace layout and must match the fresh circuit's bits.
        const spice::DcResult a = spice::solve_dc(solved.circuit, ctx, {});
        const spice::DcResult b = spice::solve_dc(fresh.circuit, ctx, {});
        ASSERT_TRUE(a.converged && b.converged) << what;
        EXPECT_TRUE(same_bits(a.x, b.x)) << what;
        if (mode == spice::SolverMode::kSparse) {
            const la::SparseMatrix& ja = solved.circuit.workspace().sjac;
            const la::SparseMatrix& jb = fresh.circuit.workspace().sjac;
            EXPECT_EQ(ja.col_idx(), jb.col_idx()) << what;
            EXPECT_TRUE(same_bits(ja.values(), jb.values())) << what;
        }

        // Direct assemblies of both circuits, in every mode and layout.
        for (const auto& [name, as] : analysis_modes(0.0)) {
            la::Matrix ja, jb;
            la::Vector ra, rb;
            spice::assemble(solved.circuit, as, a.x, kGmin, ja, ra);
            spice::assemble(fresh.circuit, as, a.x, kGmin, jb, rb);
            EXPECT_TRUE(same_bits(ja, jb) && same_bits(ra, rb))
                << what << " dense " << name;
            la::SparseMatrix sa, sb;
            spice::build_pattern(solved.circuit, sa);
            spice::build_pattern(fresh.circuit, sb);
            spice::assemble(solved.circuit, as, a.x, kGmin, sa, ra);
            spice::assemble(fresh.circuit, as, a.x, kGmin, sb, rb);
            EXPECT_TRUE(same_bits(sa.values(), sb.values()) &&
                        same_bits(ra, rb))
                << what << " CSR " << name;
        }
    }
}

TEST(AssemblyRebind, AlternatingDenseAndCsrTargetsMatchTheReference) {
    sram::SramCell cell = held_cell();
    spice::Circuit& c = cell.circuit;
    c.prepare();
    Rng rng(11);
    la::Vector x(c.num_unknowns());
    for (double& v : x)
        v = rng.uniform(0.0, 0.8);

    // Two CSR targets with the same pattern: each assembly into the one the
    // slots do not index rebinds against that matrix's pattern.
    la::SparseMatrix first;
    la::SparseMatrix second;
    spice::build_pattern(c, first);
    spice::build_pattern(c, second);
    for (int round = 0; round < 3; ++round) {
        for (const auto& [name, as] : analysis_modes(1e-10)) {
            const std::string what = name + " round " + std::to_string(round);
            la::Matrix ref_jac;
            la::Vector ref_rhs;
            reference_assemble(c, as, x, kGmin, ref_jac, ref_rhs);
            std::vector<double> ref_vals;
            la::Vector ref_csr_rhs;
            reference_assemble(c, as, x, kGmin, first, ref_vals, ref_csr_rhs);

            la::Matrix jac;
            la::Vector rhs;
            spice::assemble(c, as, x, kGmin, jac, rhs);
            EXPECT_TRUE(same_bits(jac, ref_jac) && same_bits(rhs, ref_rhs))
                << "dense " << what;
            for (la::SparseMatrix* target : {&first, &second}) {
                spice::assemble(c, as, x, kGmin, *target, rhs);
                EXPECT_TRUE(same_bits(target->values(), ref_vals) &&
                            same_bits(rhs, ref_csr_rhs))
                    << "CSR " << what;
            }
        }
    }
}

TEST(AssemblyRebind, OutOfRangeNodeFailsAtBindBeforeAnyWrite) {
    spice::Circuit c;
    const spice::NodeId a = c.add_node("a");
    c.add_vsource("V1", a, spice::kGround, spice::Waveform::dc(1.0));
    c.add_resistor("Rbad", a, 7, 1e3); // node 7 does not exist
    c.prepare();
    const std::size_t n = c.num_unknowns();
    const la::Vector x(n, 0.0);
    spice::AnalysisState as;

    // A sentinel-filled target of the right size: binding fails before
    // the assembly zeroes or writes anything.
    la::Matrix jac(n, n, 7.0);
    la::Vector rhs(n, 7.0);
    EXPECT_THROW(spice::assemble(c, as, x, kGmin, jac, rhs),
                 contract_violation);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t col = 0; col < n; ++col)
            EXPECT_EQ(jac(r, col), 7.0);
    for (const double v : rhs)
        EXPECT_EQ(v, 7.0);

    la::SparseMatrix csr;
    EXPECT_THROW(spice::build_pattern(c, csr), contract_violation);
}

} // namespace
} // namespace tfetsram
