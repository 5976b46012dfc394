// Transient engine tests against closed-form RC answers, plus breakpoint
// handling, early-stop conditions, and result interrogation helpers.

#include <gtest/gtest.h>

#include <cmath>

#include "spice/circuit.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"

namespace tfetsram::spice {
namespace {

/// 1 kOhm / 1 pF low-pass driven by a step at t = 1 ns (tau = 1 ns).
struct RcFixture {
    Circuit c;
    NodeId in = 0;
    NodeId out = 0;

    RcFixture() {
        in = c.add_node("in");
        out = c.add_node("out");
        c.add_vsource("V", in, kGround,
                      Waveform::pwl({{1e-9, 0.0}, {1.001e-9, 1.0}}));
        c.add_resistor("R", in, out, 1e3);
        c.add_capacitor("C", out, kGround, 1e-12);
    }
};

TEST(Transient, RcStepMatchesAnalytic) {
    RcFixture f;
    SolverOptions opts;
    opts.dt_max = 2e-11;
    const TransientResult tr =
        solve_transient(f.c, ambient_context(), opts, 6e-9);
    ASSERT_TRUE(tr.completed) << tr.message;

    const double tau = 1e-9;
    for (double t : {2e-9, 3e-9, 4.5e-9}) {
        const double expected = 1.0 - std::exp(-(t - 1.001e-9) / tau);
        EXPECT_NEAR(tr.voltage_at(f.out, t), expected, 0.01)
            << "at t=" << t;
    }
}

TEST(Transient, RcStartsAtDcOperatingPoint) {
    RcFixture f;
    const TransientResult tr =
        solve_transient(f.c, ambient_context(), {}, 0.5e-9);
    ASSERT_TRUE(tr.completed);
    EXPECT_NEAR(tr.voltage(f.out, 0), 0.0, 1e-6);
    // Nothing happens before the step.
    EXPECT_NEAR(tr.voltage_at(f.out, 0.4e-9), 0.0, 1e-6);
}

TEST(Transient, LandsOnBreakpoints) {
    RcFixture f;
    const TransientResult tr =
        solve_transient(f.c, ambient_context(), {}, 2e-9);
    ASSERT_TRUE(tr.completed);
    bool hit = false;
    for (double t : tr.times())
        if (std::fabs(t - 1e-9) < 1e-20)
            hit = true;
    EXPECT_TRUE(hit) << "engine must land exactly on source breakpoints";
}

TEST(Transient, StopConditionEndsEarly) {
    RcFixture f;
    const NodeId out = f.out;
    const auto stop = [out](double, const la::Vector& x) {
        return node_voltage(x, out) > 0.5;
    };
    const TransientResult tr =
        solve_transient(f.c, ambient_context(), {}, 10e-9, stop);
    ASSERT_TRUE(tr.completed);
    EXPECT_TRUE(tr.stopped_early);
    EXPECT_LT(tr.end_time(), 2.5e-9);
    EXPECT_GT(tr.final_voltage(out), 0.5);
}

TEST(Transient, CapacitorDividerStepSharing) {
    // Series caps divide a fast step by the capacitance ratio.
    Circuit c;
    const NodeId in = c.add_node("in");
    const NodeId mid = c.add_node("mid");
    c.add_vsource("V", in, kGround,
                  Waveform::pwl({{1e-10, 0.0}, {2e-10, 1.0}}));
    c.add_capacitor("C1", in, mid, 3e-15);
    c.add_capacitor("C2", mid, kGround, 1e-15);
    const TransientResult tr = solve_transient(c, ambient_context(), {}, 4e-10);
    ASSERT_TRUE(tr.completed) << tr.message;
    EXPECT_NEAR(tr.final_voltage(mid), 0.75, 0.02);
}

TEST(Transient, TimedSwitchIsolatesNode) {
    // Precharge a cap through a switch, open the switch, then move the
    // source: the cap must hold its charge.
    Circuit c;
    const NodeId drv = c.add_node("drv");
    const NodeId bl = c.add_node("bl");
    c.add_vsource("V", drv, kGround,
                  Waveform::pwl({{2e-9, 1.0}, {2.1e-9, 0.0}}));
    c.add_switch("S", drv, bl, 1e3, 1e15,
                 Waveform::pwl({{1e-9, 1.0}, {1.05e-9, 0.0}}));
    c.add_capacitor("C", bl, kGround, 1e-14);
    const TransientResult tr = solve_transient(c, ambient_context(), {}, 5e-9);
    ASSERT_TRUE(tr.completed) << tr.message;
    EXPECT_NEAR(tr.final_voltage(drv), 0.0, 1e-3);
    EXPECT_NEAR(tr.final_voltage(bl), 1.0, 0.02); // held by the open switch
}

TEST(TransientResult, MinDifferenceAndCrossing) {
    TransientResult tr;
    // Two-node synthetic trace: v(a) falls 1 -> 0, v(b) rises 0 -> 1.
    for (int i = 0; i <= 10; ++i) {
        const double t = i * 1e-10;
        la::Vector x = {1.0 - 0.1 * i, 0.1 * i};
        tr.append(t, x);
    }
    // a - b hits its minimum at the end: 0 - 1 = -1.
    EXPECT_NEAR(tr.min_difference(1, 2, 0.0, 1e-9), -1.0, 1e-12);
    // a - b crosses zero at t = 0.5 ns.
    EXPECT_NEAR(tr.first_crossing_below(1, 2, 0.0, 0.0), 0.5e-9, 1e-12);
}

TEST(TransientResult, VoltageAtInterpolates) {
    TransientResult tr;
    tr.append(0.0, {0.0});
    tr.append(1e-9, {1.0});
    EXPECT_NEAR(tr.voltage_at(1, 0.5e-9), 0.5, 1e-12);
    EXPECT_NEAR(tr.voltage_at(1, -1.0), 0.0, 1e-12); // clamps
    EXPECT_NEAR(tr.voltage_at(1, 2e-9), 1.0, 1e-12); // clamps
}

} // namespace
} // namespace tfetsram::spice
