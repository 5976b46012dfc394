// Additional engine coverage: width scaling, model mirroring algebra,
// power accounting with transistors, solver-option behaviour, integrator
// choice, and the Fig. 5 unidirectional-write current-flow claim.

#include <gtest/gtest.h>

#include <cmath>

#include "device/models.hpp"
#include "sram/designs.hpp"
#include "sram/operations.hpp"
#include "spice/dc.hpp"
#include "spice/report.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"

namespace tfetsram {
namespace {

TEST(Transistor, CurrentScalesLinearlyWithWidth) {
    spice::Circuit c;
    const auto vdd = c.add_node("vdd");
    const auto d1 = c.add_node("d1");
    const auto d2 = c.add_node("d2");
    c.add_vsource("V", vdd, spice::kGround, spice::Waveform::dc(0.8));
    c.add_vsource("V1", d1, spice::kGround, spice::Waveform::dc(0.8));
    c.add_vsource("V2", d2, spice::kGround, spice::Waveform::dc(0.8));
    auto& m1 = c.add_transistor("M1", device::make_ntfet(), d1, vdd,
                                spice::kGround, 1.0);
    auto& m3 = c.add_transistor("M3", device::make_ntfet(), d2, vdd,
                                spice::kGround, 3.0);
    const spice::DcResult r = spice::solve_dc(c, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(m3.drain_current(r.x), 3.0 * m1.drain_current(r.x),
                std::fabs(m1.drain_current(r.x)) * 1e-9);
}

TEST(MirrorModel, DoubleMirrorIsIdentity) {
    const auto n = device::make_ntfet();
    const auto nn = std::make_shared<device::MirrorModel>(
        std::make_shared<device::MirrorModel>(n, "x"), "xx");
    for (double vgs : {-0.5, 0.2, 0.9}) {
        for (double vds : {-0.7, 0.1, 0.8}) {
            const spice::IvSample a = n->iv(vgs, vds);
            const spice::IvSample b = nn->iv(vgs, vds);
            EXPECT_DOUBLE_EQ(a.ids, b.ids);
            EXPECT_DOUBLE_EQ(a.gm, b.gm);
            EXPECT_DOUBLE_EQ(a.gds, b.gds);
        }
    }
}

TEST(PowerReport, TransistorDissipationBalancesSources) {
    // Resistively-loaded on-transistor: source power equals total
    // dissipation to solver tolerance.
    spice::Circuit c;
    const auto vdd = c.add_node("vdd");
    const auto out = c.add_node("out");
    c.add_vsource("V", vdd, spice::kGround, spice::Waveform::dc(0.8));
    c.add_resistor("R", vdd, out, 1e4);
    c.add_transistor("M", device::make_nmos(), out, vdd, spice::kGround, 1.0);
    const spice::DcResult r = spice::solve_dc(c, spice::ambient_context(), {});
    ASSERT_TRUE(r.converged);
    const spice::PowerReport rep = spice::power_report(c, r.x);
    EXPECT_GT(rep.dissipated, 1e-7);
    EXPECT_NEAR(rep.delivered_by_sources, rep.dissipated,
                rep.dissipated * 1e-3 + 1e-12);
}

TEST(Solver, BackwardEulerOptionWorks) {
    // BE is overdamped but must land on the same settled values.
    spice::Circuit c;
    const auto in = c.add_node("in");
    const auto out = c.add_node("out");
    c.add_vsource("V", in, spice::kGround,
                  spice::Waveform::pwl({{1e-10, 0.0}, {1.1e-10, 1.0}}));
    c.add_resistor("R", in, out, 1e3);
    c.add_capacitor("C", out, spice::kGround, 1e-13);
    spice::SolverOptions opts;
    opts.integrator = spice::Integrator::kBackwardEuler;
    const spice::TransientResult tr =
        spice::solve_transient(c, spice::ambient_context(), opts, 2e-9);
    ASSERT_TRUE(tr.completed) << tr.message;
    EXPECT_NEAR(tr.final_voltage(out), 1.0, 1e-3);
}

TEST(Solver, MaxStepGuardTerminates) {
    spice::Circuit c;
    const auto in = c.add_node("in");
    c.add_vsource("V", in, spice::kGround, spice::Waveform::dc(1.0));
    c.add_resistor("R", in, spice::kGround, 1e3);
    spice::SolverOptions opts;
    opts.max_steps = 3;
    opts.dt_max = 1e-13;
    const spice::TransientResult tr =
        spice::solve_transient(c, spice::ambient_context(), opts, 1e-9);
    EXPECT_FALSE(tr.completed);
    EXPECT_NE(tr.message.find("max step count"), std::string::npos);
}

TEST(Solver, SourceSteppingRecoversColdStart) {
    // A TFET latch with no initial guess: one of the homotopies must land
    // a converged operating point.
    const device::ModelSet m = device::make_model_set();
    spice::Circuit c;
    const auto vdd = c.add_node("vdd");
    const auto a = c.add_node("a");
    const auto b = c.add_node("b");
    c.add_vsource("V", vdd, spice::kGround, spice::Waveform::dc(0.8));
    c.add_transistor("P1", m.ptfet, a, b, vdd, 1.0);
    c.add_transistor("N1", m.ntfet, a, b, spice::kGround, 1.0);
    c.add_transistor("P2", m.ptfet, b, a, vdd, 1.0);
    c.add_transistor("N2", m.ntfet, b, a, spice::kGround, 1.0);
    const spice::DcResult r = spice::solve_dc(c, spice::ambient_context(), {});
    EXPECT_TRUE(r.converged) << r.strategy;
}

TEST(Fig5CurrentFlow, OnlyOneAccessConductsDuringTfetWrite) {
    // Fig. 5(c)/(d): in the 6T inpTFET cell, only the access transistor on
    // the side being pulled up carries meaningful current during a write;
    // its partner is blocked by unidirectional conduction.
    const device::ModelSet m = device::make_model_set();
    sram::CellConfig cfg;
    cfg.kind = sram::CellKind::kTfet6T;
    cfg.access = sram::AccessDevice::kInwardP;
    cfg.beta = 0.6;
    cfg.models = m;
    sram::SramCell cell = sram::build_cell(cfg);

    const sram::OperationWindow w =
        sram::program_write(cell, /*value=*/true, 400e-12);
    const sram::HoldState hs = sram::solve_hold_state(cell, false, {});
    ASSERT_TRUE(hs.state_ok);
    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, spice::ambient_context(), {}, w.wl_start + 60e-12,
        nullptr, &hs.x);
    ASSERT_TRUE(tr.completed) << tr.message;

    // Mid-write currents through the two access devices.
    const spice::Transistor* axl = nullptr;
    const spice::Transistor* axr = nullptr;
    for (const spice::Transistor* t : cell.circuit.transistors()) {
        if (t->label() == "AXL")
            axl = t;
        if (t->label() == "AXR")
            axr = t;
    }
    ASSERT_NE(axl, nullptr);
    ASSERT_NE(axr, nullptr);
    const la::Vector& x = tr.state(tr.size() - 1);
    const double i_axl = std::fabs(axl->drain_current(x));
    const double i_axr = std::fabs(axr->drain_current(x));
    EXPECT_GT(i_axl, 1e-7) << "the pull-up side access must conduct";
    EXPECT_LT(i_axr, 0.05 * i_axl)
        << "the opposite access is blocked by unidirectionality";
}

TEST(Fig5CurrentFlow, BothAccessesConductDuringCmosWrite) {
    // Fig. 5(a)/(b): the CMOS cell writes through both pass gates.
    const device::ModelSet m = device::make_model_set();
    sram::CellConfig cfg;
    cfg.kind = sram::CellKind::kCmos6T;
    cfg.access = sram::AccessDevice::kCmos;
    cfg.beta = 1.5;
    cfg.models = m;
    sram::SramCell cell = sram::build_cell(cfg);

    const sram::OperationWindow w =
        sram::program_write(cell, /*value=*/true, 400e-12);
    const sram::HoldState hs = sram::solve_hold_state(cell, false, {});
    ASSERT_TRUE(hs.state_ok);
    const spice::TransientResult tr = spice::solve_transient(
        cell.circuit, spice::ambient_context(), {}, w.wl_start + 15e-12,
        nullptr, &hs.x);
    ASSERT_TRUE(tr.completed) << tr.message;

    const spice::Transistor* axl = nullptr;
    const spice::Transistor* axr = nullptr;
    for (const spice::Transistor* t : cell.circuit.transistors()) {
        if (t->label() == "AXL")
            axl = t;
        if (t->label() == "AXR")
            axr = t;
    }
    const la::Vector& x = tr.state(tr.size() - 1);
    EXPECT_GT(std::fabs(axl->drain_current(x)), 1e-6);
    EXPECT_GT(std::fabs(axr->drain_current(x)), 1e-6);
}

} // namespace
} // namespace tfetsram
