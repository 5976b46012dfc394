// AC analysis tests: RC corner against the closed form, flat resistive
// response, capacitance-matrix extraction through a transistor, and a
// TFET common-source stage's low-frequency gain.

#include <gtest/gtest.h>

#include <cmath>

#include "device/models.hpp"
#include "spice/ac.hpp"
#include "spice/solution.hpp"

namespace tfetsram::spice {
namespace {

TEST(Ac, RcLowPassCorner) {
    // R = 1k, C = 1p -> f_3dB = 1/(2 pi R C) ~ 159.2 MHz.
    Circuit ckt;
    const NodeId in = ckt.add_node("in");
    const NodeId out = ckt.add_node("out");
    auto& vin = ckt.add_vsource("V", in, kGround, Waveform::dc(0.0));
    ckt.add_resistor("R", in, out, 1e3);
    ckt.add_capacitor("C", out, kGround, 1e-12);
    const AcResult res =
        solve_ac(ckt, ambient_context(), {}, {&vin, 1.0}, 1e6, 1e10, 20);
    ASSERT_TRUE(res.ok) << res.message;
    const double f3 = res.corner_frequency(out);
    EXPECT_NEAR(f3, 1.0 / (2.0 * M_PI * 1e3 * 1e-12), f3 * 0.05);
    // Low-frequency response is unity; 0 dB.
    EXPECT_NEAR(res.magnitude_db(out, 0), 0.0, 0.1);
    // A decade above the corner the slope is -20 dB/dec.
    const auto& f = res.frequencies();
    std::size_t hi = f.size() - 1;
    EXPECT_LT(res.magnitude_db(out, hi), -30.0);
}

TEST(Ac, ResistiveDividerFlat) {
    Circuit ckt;
    const NodeId in = ckt.add_node("in");
    const NodeId mid = ckt.add_node("mid");
    auto& vin = ckt.add_vsource("V", in, kGround, Waveform::dc(0.0));
    ckt.add_resistor("R1", in, mid, 1e3);
    ckt.add_resistor("R2", mid, kGround, 1e3);
    const AcResult res =
        solve_ac(ckt, ambient_context(), {}, {&vin, 1.0}, 1e3, 1e9, 5);
    ASSERT_TRUE(res.ok);
    for (std::size_t i = 0; i < res.frequencies().size(); ++i)
        EXPECT_NEAR(res.magnitude_db(mid, i), 20.0 * std::log10(0.5), 0.05)
            << "i=" << i;
    EXPECT_TRUE(std::isnan(res.corner_frequency(mid)));
}

TEST(Ac, PhaseLagAtCorner) {
    Circuit ckt;
    const NodeId in = ckt.add_node("in");
    const NodeId out = ckt.add_node("out");
    auto& vin = ckt.add_vsource("V", in, kGround, Waveform::dc(0.0));
    ckt.add_resistor("R", in, out, 1e3);
    ckt.add_capacitor("C", out, kGround, 1e-12);
    const double fc = 1.0 / (2.0 * M_PI * 1e3 * 1e-12);
    const AcResult res =
        solve_ac(ckt, ambient_context(), {}, {&vin, 1.0}, fc, fc * 1.01, 200);
    ASSERT_TRUE(res.ok);
    const std::complex<double> v = res.phasor(out, 0);
    EXPECT_NEAR(std::arg(v), -M_PI / 4.0, 0.02); // -45 degrees at the corner
}

TEST(Ac, TfetCommonSourceGain) {
    // Resistor-loaded common-source stage: |A_v| ~ gm * (R || 1/gds).
    Circuit ckt;
    const NodeId vdd = ckt.add_node("vdd");
    const NodeId in = ckt.add_node("in");
    const NodeId out = ckt.add_node("out");
    ckt.add_vsource("Vdd", vdd, kGround, Waveform::dc(0.8));
    auto& vin = ckt.add_vsource("Vin", in, kGround, Waveform::dc(0.45));
    const double r_load = 2e5;
    ckt.add_resistor("RL", vdd, out, r_load);
    const auto model = device::make_ntfet();
    ckt.add_transistor("M", model, out, in, kGround, 1.0);

    const AcResult res =
        solve_ac(ckt, ambient_context(), {}, {&vin, 1.0}, 1e3, 1e6, 5);
    ASSERT_TRUE(res.ok) << res.message;
    const double av = std::abs(res.phasor(out, 0));
    EXPECT_GT(av, 1.0) << "the stage must amplify";

    // Inverting stage: the low-frequency phasor points along the negative
    // real axis (arg = +/- pi, branch cut permitting).
    EXPECT_NEAR(std::fabs(std::arg(res.phasor(out, 0))), M_PI, 0.5);
}

TEST(Ac, TransistorCapacitanceLoadsTheBitline) {
    // A bitline-like node loaded by an off transistor's drain capacitance:
    // corner moves when the device widens (C extraction sanity).
    auto corner_for_width = [](double width) {
        Circuit ckt;
        const NodeId in = ckt.add_node("in");
        const NodeId out = ckt.add_node("out");
        auto& vin = ckt.add_vsource("V", in, kGround, Waveform::dc(0.0));
        ckt.add_resistor("R", in, out, 1e6);
        // Gate grounded, drain at the node: Cgd loads it.
        ckt.add_transistor("M", device::make_ntfet(), out, kGround, kGround,
                           width);
        const AcResult res =
            solve_ac(ckt, ambient_context(), {}, {&vin, 1.0}, 1e6, 1e12, 10);
        return res.ok ? res.corner_frequency(out) : -1.0;
    };
    const double f1 = corner_for_width(1.0);
    const double f4 = corner_for_width(4.0);
    ASSERT_GT(f1, 0.0);
    ASSERT_GT(f4, 0.0);
    EXPECT_NEAR(f1 / f4, 4.0, 0.5) << "4x the width, 4x the cap, 1/4 corner";
}

TEST(Ac, RejectsBadSweep) {
    Circuit ckt;
    const NodeId in = ckt.add_node("in");
    auto& vin = ckt.add_vsource("V", in, kGround, Waveform::dc(0.0));
    ckt.add_resistor("R", in, kGround, 1e3);
    EXPECT_THROW(solve_ac(ckt, ambient_context(), {}, {&vin, 1.0}, 1e6, 1e3,
                          10),
                 contract_violation);
    EXPECT_THROW(solve_ac(ckt, ambient_context(), {}, {nullptr, 1.0}, 1e3,
                          1e6, 10),
                 contract_violation);
}

} // namespace
} // namespace tfetsram::spice
