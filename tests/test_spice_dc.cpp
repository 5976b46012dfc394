// DC solver tests: linear networks with known solutions, nonlinear devices
// (through the real transistor models), homotopy fallbacks, and power
// accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "device/models.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/report.hpp"
#include "spice/solution.hpp"

namespace tfetsram::spice {
namespace {

TEST(Dc, ResistorDivider) {
    Circuit c;
    const NodeId top = c.add_node("top");
    const NodeId mid = c.add_node("mid");
    c.add_vsource("V1", top, kGround, Waveform::dc(1.0));
    c.add_resistor("R1", top, mid, 1e3);
    c.add_resistor("R2", mid, kGround, 3e3);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(node_voltage(r.x, mid), 0.75, 1e-6);
}

TEST(Dc, CurrentSourceIntoResistor) {
    Circuit c;
    const NodeId n = c.add_node("n");
    c.add_isource("I1", kGround, n, Waveform::dc(1e-3)); // 1 mA into n
    c.add_resistor("R", n, kGround, 2e3);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(node_voltage(r.x, n), 2.0, 1e-6);
}

TEST(Dc, VoltageSourceBranchCurrent) {
    Circuit c;
    const NodeId n = c.add_node("n");
    auto& v = c.add_vsource("V1", n, kGround, Waveform::dc(2.0));
    c.add_resistor("R", n, kGround, 1e3);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    // 2 mA delivered into the circuit out of the + terminal.
    EXPECT_NEAR(v.delivered_current(r.x), 2e-3, 1e-9);
    EXPECT_NEAR(v.power(r.x), -4e-3, 1e-9); // delivers 4 mW
}

TEST(Dc, CapacitorIsOpenAtDc) {
    Circuit c;
    const NodeId a = c.add_node("a");
    const NodeId b = c.add_node("b");
    c.add_vsource("V1", a, kGround, Waveform::dc(1.0));
    c.add_resistor("R", a, b, 1e3);
    c.add_capacitor("C", b, kGround, 1e-12);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    // No DC path to ground except gmin: node floats to the source value.
    EXPECT_NEAR(node_voltage(r.x, b), 1.0, 1e-3);
}

TEST(Dc, SeriesVoltageSourcesStack) {
    Circuit c;
    const NodeId a = c.add_node("a");
    const NodeId b = c.add_node("b");
    c.add_vsource("V1", a, kGround, Waveform::dc(1.0));
    c.add_vsource("V2", b, a, Waveform::dc(0.5));
    c.add_resistor("R", b, kGround, 1e3);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(node_voltage(r.x, b), 1.5, 1e-6);
}

TEST(Dc, TimedSwitchConducts) {
    Circuit c;
    const NodeId a = c.add_node("a");
    const NodeId b = c.add_node("b");
    c.add_vsource("V1", a, kGround, Waveform::dc(1.0));
    c.add_switch("S", a, b, 10.0, 1e12, Waveform::dc(1.0));
    c.add_resistor("R", b, kGround, 10.0);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(node_voltage(r.x, b), 0.5, 1e-6);
}

TEST(Dc, TimedSwitchBlocks) {
    Circuit c;
    const NodeId a = c.add_node("a");
    const NodeId b = c.add_node("b");
    c.add_vsource("V1", a, kGround, Waveform::dc(1.0));
    c.add_switch("S", a, b, 10.0, 1e12, Waveform::dc(0.0));
    c.add_resistor("R", b, kGround, 10.0);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    EXPECT_LT(node_voltage(r.x, b), 1e-6);
}

// A diode-connected nMOS against a resistor: strongly nonlinear, solvable.
TEST(Dc, DiodeConnectedMosfetConverges) {
    Circuit c;
    const NodeId vdd = c.add_node("vdd");
    const NodeId d = c.add_node("d");
    c.add_vsource("V1", vdd, kGround, Waveform::dc(1.0));
    c.add_resistor("R", vdd, d, 1e4);
    c.add_transistor("M", device::make_nmos(), d, d, kGround, 1.0);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    const double v = node_voltage(r.x, d);
    EXPECT_GT(v, 0.3);
    EXPECT_LT(v, 1.0);
}

TEST(Dc, TfetInverterSwitches) {
    Circuit c;
    const NodeId vdd = c.add_node("vdd");
    const NodeId in = c.add_node("in");
    const NodeId out = c.add_node("out");
    c.add_vsource("Vdd", vdd, kGround, Waveform::dc(0.8));
    auto& vin = c.add_vsource("Vin", in, kGround, Waveform::dc(0.0));
    c.add_transistor("MP", device::make_ptfet(), out, in, vdd, 1.0);
    c.add_transistor("MN", device::make_ntfet(), out, in, kGround, 1.0);

    const DcResult low_in = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(low_in.converged);
    EXPECT_GT(node_voltage(low_in.x, out), 0.75); // output high

    vin.set_waveform(Waveform::dc(0.8));
    const DcResult high_in = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(high_in.converged);
    EXPECT_LT(node_voltage(high_in.x, out), 0.05); // output low
}

TEST(Dc, StaticPowerFromDeviceEquationsNotGmin) {
    // An off nTFET from 0.8 V to ground leaks ~1e-17 A * 0.8 V, far below
    // what the 1e-12 S gmin shunt would suggest. The device-side power
    // report must see the leakage, not the shunt.
    Circuit c;
    const NodeId vdd = c.add_node("vdd");
    c.add_vsource("V1", vdd, kGround, Waveform::dc(0.8));
    c.add_transistor("M", device::make_ntfet(), vdd, kGround, kGround, 1.0);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    const double p = static_power(c, r.x);
    EXPECT_GT(p, 1e-19);
    EXPECT_LT(p, 1e-15);
}

TEST(Dc, PowerReportBalances) {
    Circuit c;
    const NodeId n = c.add_node("n");
    c.add_vsource("V1", n, kGround, Waveform::dc(1.0));
    c.add_resistor("R", n, kGround, 1e3);
    const DcResult r = solve_dc(c, ambient_context(), {});
    ASSERT_TRUE(r.converged);
    const PowerReport rep = power_report(c, r.x);
    EXPECT_NEAR(rep.dissipated, 1e-3, 1e-8);
    EXPECT_NEAR(rep.delivered_by_sources, 1e-3, 1e-8);
}

TEST(Dc, InitialGuessSelectsBistableState) {
    // Cross-coupled TFET inverter pair: two stable states; the initial
    // guess must select the basin.
    Circuit c;
    const NodeId vdd = c.add_node("vdd");
    const NodeId a = c.add_node("a");
    const NodeId b = c.add_node("b");
    c.add_vsource("Vdd", vdd, kGround, Waveform::dc(0.8));
    c.add_transistor("P1", device::make_ptfet(), a, b, vdd, 1.0);
    c.add_transistor("N1", device::make_ntfet(), a, b, kGround, 1.0);
    c.add_transistor("P2", device::make_ptfet(), b, a, vdd, 1.0);
    c.add_transistor("N2", device::make_ntfet(), b, a, kGround, 1.0);
    c.prepare();

    la::Vector guess(c.num_unknowns(), 0.0);
    guess[vdd - 1] = 0.8;
    guess[a - 1] = 0.8;
    guess[b - 1] = 0.0;
    const DcResult r1 = solve_dc(c, ambient_context(), {}, 0.0, &guess);
    ASSERT_TRUE(r1.converged);
    EXPECT_GT(node_voltage(r1.x, a) - node_voltage(r1.x, b), 0.6);

    guess[a - 1] = 0.0;
    guess[b - 1] = 0.8;
    const DcResult r2 = solve_dc(c, ambient_context(), {}, 0.0, &guess);
    ASSERT_TRUE(r2.converged);
    EXPECT_LT(node_voltage(r2.x, a) - node_voltage(r2.x, b), -0.6);
}

TEST(Circuit, NodeNamesRoundTrip) {
    Circuit c;
    const NodeId n = c.add_node("mynode");
    EXPECT_EQ(c.node("mynode"), n);
    EXPECT_EQ(c.node_name(n), "mynode");
    EXPECT_EQ(c.node("gnd"), kGround);
    EXPECT_THROW(static_cast<void>(c.node("missing")),
                 std::invalid_argument);
    EXPECT_THROW(c.add_node("mynode"), std::invalid_argument);
}

} // namespace
} // namespace tfetsram::spice
