// Regression tests for failure modes found while bringing the
// reproduction up. Each encodes a real bug class:
//  1. discontinuous C-V across vds = 0 caused Newton limit cycles when a
//     node hovered at another terminal's potential;
//  2. differentiating the asinh-compressed current table starved the
//     Jacobian at the I = 0 cliff, collapsing bistable cells to their
//     metastable point;
//  3. trapezoidal history could wedge Newton on sharp source edges
//     (fixed by the per-step backward-Euler fallback).

#include <gtest/gtest.h>

#include <cmath>

#include "device/models.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"

namespace tfetsram {
namespace {

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

TEST(Regression, MosfetCvContinuousAcrossVdsZero) {
    // Bug 1: cgs/cgd swapped discontinuously at vds = 0.
    const auto m = device::make_nmos();
    for (double vgs : {0.2, 0.5, 0.8, 1.1}) {
        const spice::CvSample lo = m->cv(vgs, -1e-9);
        const spice::CvSample hi = m->cv(vgs, +1e-9);
        EXPECT_NEAR(lo.cgs, hi.cgs, 1e-20) << "vgs=" << vgs;
        EXPECT_NEAR(lo.cgd, hi.cgd, 1e-20) << "vgs=" << vgs;
    }
}

TEST(Regression, MosfetCvSwapIdentityExact) {
    const auto m = device::make_nmos();
    for (double vgs : {0.3, 0.7}) {
        for (double vds : {0.1, 0.5, 0.9}) {
            const spice::CvSample fwd = m->cv(vgs + vds, vds);
            const spice::CvSample rev = m->cv(vgs, -vds);
            EXPECT_NEAR(rev.cgs, fwd.cgd, 1e-21);
            EXPECT_NEAR(rev.cgd, fwd.cgs, 1e-21);
        }
    }
}

TEST(Regression, CmosCellShortPulseBisectionCompletes) {
    // Bug 1+3 composite: the CMOS cell at beta = 0.8 with a ~12 ps pulse
    // wedged Newton mid WL-fall when qb hovered at 0 V. The whole
    // bisection must now complete with a finite, small WLcrit.
    sram::CellConfig cfg;
    cfg.kind = sram::CellKind::kCmos6T;
    cfg.access = sram::AccessDevice::kCmos;
    cfg.beta = 0.8;
    cfg.models = models();
    sram::SramCell cell = sram::build_cell(cfg);
    const sram::MetricOptions opts;

    // The exact wedge scenario first:
    const sram::WriteOutcome wedge =
        sram::attempt_write(cell, 1.2e-11, sram::Assist::kNone, opts);
    EXPECT_TRUE(wedge.simulated) << "transient must not wedge";

    const double wl =
        sram::critical_wordline_pulse(cell, sram::Assist::kNone, opts);
    EXPECT_TRUE(std::isfinite(wl));
    EXPECT_LT(wl, 100e-12);
}

TEST(Regression, TabulatedLatchHoldsBothStates) {
    // Bug 2: with derivative-starved tables the cross-coupled pair could
    // only converge to its metastable point, so hold static power came
    // out 8 orders too high.
    sram::SramCell cell =
        sram::build_cell(sram::proposed_design(0.8, models()).config);
    sram::program_hold(cell);
    for (bool q_high : {false, true}) {
        const sram::HoldState hs =
            sram::solve_hold_state(cell, q_high, spice::SolverOptions{});
        ASSERT_TRUE(hs.converged);
        EXPECT_TRUE(hs.state_ok) << "q_high=" << q_high;
        const double sep =
            std::fabs(spice::branch_voltage(hs.x, cell.q, cell.qb));
        EXPECT_GT(sep, 0.75) << "must rest at a stable corner, not the saddle";
    }
}

TEST(Regression, HoldPowerNotPollutedByMetastability) {
    sram::SramCell cell =
        sram::build_cell(sram::proposed_design(0.8, models()).config);
    const double p = sram::worst_hold_static_power(cell, {});
    EXPECT_LT(p, 1e-16) << "metastable operating point would read ~1e-9 W";
}

TEST(Regression, BackwardEulerFallbackSurvivesSharpEdges) {
    // A brutal stimulus: 1 ps edges into a stiff RC divider with a
    // floating middle node. The engine must finish without wedging.
    spice::Circuit c;
    const auto in = c.add_node("in");
    const auto mid = c.add_node("mid");
    c.add_vsource("V", in, spice::kGround,
                  spice::Waveform::pwl({{1e-10, 0.0},
                                        {1.01e-10, 1.0},
                                        {2e-10, 1.0},
                                        {2.01e-10, -0.5},
                                        {3e-10, -0.5},
                                        {3.01e-10, 1.0}}));
    c.add_resistor("R1", in, mid, 1e6);
    c.add_capacitor("C1", mid, spice::kGround, 1e-15);
    c.add_transistor("M", models().ntfet, mid, in, spice::kGround, 1.0);
    const spice::TransientResult tr =
        spice::solve_transient(c, spice::ambient_context(), {}, 5e-10);
    EXPECT_TRUE(tr.completed) << tr.message;
}

TEST(Regression, AllTopologiesSurviveFullMetricSweep) {
    // Broad smoke: every topology must produce finite/sane values for the
    // metric set its design supports, with no solver wedging.
    const sram::MetricOptions opts;
    for (const sram::DesignSpec& d :
         sram::comparison_designs(0.7, models())) {
        sram::SramCell cell = sram::build_cell(d.config);
        const double p = sram::worst_hold_static_power(cell, opts);
        EXPECT_TRUE(std::isfinite(p)) << d.name;
        EXPECT_GT(p, 0.0) << d.name;
        if (d.wlcrit_defined) {
            const double wl =
                sram::critical_wordline_pulse(cell, d.write_assist, opts);
            EXPECT_TRUE(std::isfinite(wl)) << d.name;
        }
        const auto dr =
            sram::dynamic_read_noise_margin(cell, d.read_assist, opts);
        EXPECT_TRUE(dr.valid) << d.name;
        const double td = sram::write_delay(cell, d.write_assist, opts);
        EXPECT_FALSE(std::isnan(td)) << d.name;
        const double rd = sram::read_delay(cell, d.read_assist, opts);
        EXPECT_FALSE(std::isnan(rd)) << d.name;
    }
}

} // namespace
} // namespace tfetsram
