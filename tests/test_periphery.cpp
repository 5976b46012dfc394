// Periphery tests: precharge/equalize networks, tri-state write drivers,
// and the latch sense amplifier, each on real transistor netlists — plus
// a full read path (cell + precharge + sense amp) end to end.

#include <gtest/gtest.h>

#include <cmath>

#include "sram/designs.hpp"
#include "sram/operations.hpp"
#include "sram/periphery.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"

namespace tfetsram::sram {
namespace {

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

PeripheryConfig pconfig(bool tfet = true) {
    PeripheryConfig cfg;
    cfg.tfet = tfet;
    cfg.models = models();
    return cfg;
}

/// Fixture: a bare bitline pair with caps and supply.
struct Lines {
    spice::Circuit ckt;
    spice::NodeId vdd = 0;
    spice::NodeId bl = 0;
    spice::NodeId blb = 0;

    Lines() {
        vdd = ckt.add_node("vdd");
        bl = ckt.add_node("bl");
        blb = ckt.add_node("blb");
        ckt.add_vsource("Vvdd", vdd, spice::kGround,
                        spice::Waveform::dc(0.8));
        ckt.add_capacitor("Cbl", bl, spice::kGround, 10e-15);
        ckt.add_capacitor("Cblb", blb, spice::kGround, 10e-15);
    }
};

TEST(Periphery, PrechargePullsBothLinesHigh) {
    Lines f;
    const Precharge pre =
        attach_precharge(f.ckt, "", f.bl, f.blb, f.vdd, pconfig());
    // Lines start unequal (leakage-floating); precharge pulse fixes them.
    f.ckt.add_resistor("Rleak", f.bl, spice::kGround, 1e9);
    pre.v_pre->set_waveform(
        spice::Waveform::pwl({{0.1e-9, 0.8}, {0.12e-9, 0.0},
                              {1.0e-9, 0.0}, {1.02e-9, 0.8}}));
    const spice::TransientResult tr =
        spice::solve_transient(f.ckt, spice::ambient_context(), {}, 1.2e-9);
    ASSERT_TRUE(tr.completed) << tr.message;
    EXPECT_NEAR(tr.voltage_at(f.bl, 1.0e-9), 0.8, 0.02);
    EXPECT_NEAR(tr.voltage_at(f.blb, 1.0e-9), 0.8, 0.02);
}

TEST(Periphery, EqualizerBalancesEitherPolarity) {
    // The anti-parallel pair must equalize regardless of which line is
    // high — the property a single unidirectional device lacks.
    for (bool bl_high : {true, false}) {
        Lines f;
        attach_precharge(f.ckt, "", f.bl, f.blb, f.vdd, pconfig())
            .v_pre->set_waveform(
                spice::Waveform::pwl({{0.1e-9, 0.8}, {0.12e-9, 0.0}}));
        // Impose an initial imbalance via a temporary clamp that releases
        // before the equalize phase.
        f.ckt.add_switch("Sinit", f.bl, f.vdd, 1e2, 1e12,
                         bl_high
                             ? spice::Waveform::pwl({{0.05e-9, 1.0},
                                                     {0.06e-9, 0.0}})
                             : spice::Waveform::dc(0.0));
        f.ckt.add_switch("Sinitb", f.blb, f.vdd, 1e2, 1e12,
                         bl_high
                             ? spice::Waveform::dc(0.0)
                             : spice::Waveform::pwl({{0.05e-9, 1.0},
                                                     {0.06e-9, 0.0}}));
        const spice::TransientResult tr =
            spice::solve_transient(f.ckt, spice::ambient_context(), {}, 1e-9);
        ASSERT_TRUE(tr.completed) << tr.message;
        EXPECT_NEAR(tr.final_voltage(f.bl), tr.final_voltage(f.blb), 0.02)
            << "bl_high=" << bl_high;
    }
}

TEST(Periphery, WriteDriverDrivesAndTristates) {
    Lines f;
    const WriteDriver drv =
        attach_write_driver(f.ckt, "", f.bl, f.blb, f.vdd, pconfig());
    // Enabled with data = 1: BL high, BLB low.
    drv.v_data->set_waveform(spice::Waveform::dc(0.8));
    drv.v_datab->set_waveform(spice::Waveform::dc(0.0));
    drv.v_en_n->set_waveform(spice::Waveform::dc(0.8));
    drv.v_en_p->set_waveform(spice::Waveform::dc(0.0));
    const spice::DcResult on =
        spice::solve_dc(f.ckt, spice::ambient_context(), {});
    ASSERT_TRUE(on.converged);
    EXPECT_GT(spice::node_voltage(on.x, f.bl), 0.75);
    EXPECT_LT(spice::node_voltage(on.x, f.blb), 0.05);

    // Disabled: both lines float (gmin leaks them toward ground at DC,
    // but the driver itself must not hold them).
    drv.v_en_n->set_waveform(spice::Waveform::dc(0.0));
    drv.v_en_p->set_waveform(spice::Waveform::dc(0.8));
    f.ckt.add_vsource("Vprobe", f.bl, spice::kGround,
                      spice::Waveform::dc(0.4));
    const spice::DcResult off =
        spice::solve_dc(f.ckt, spice::ambient_context(), {});
    ASSERT_TRUE(off.converged);
    // The probe holds 0.4 V; a still-on driver would fight it hard.
    const auto* probe = f.ckt.voltage_sources().back();
    EXPECT_LT(std::fabs(probe->delivered_current(off.x)), 1e-8);
}

class SenseAmpPolarity : public ::testing::TestWithParam<bool> {};

TEST_P(SenseAmpPolarity, RegeneratesSmallDifferentialToFullSwing) {
    const bool bl_high = GetParam();
    Lines f;
    const SenseAmp sa =
        attach_sense_amp(f.ckt, "", f.bl, f.blb, f.vdd, pconfig());
    // Impose a 100 mV split via clamps that release before SAE fires.
    const spice::NodeId lowrail = f.ckt.add_node("lowrail");
    f.ckt.add_vsource("Vlow", lowrail, spice::kGround,
                      spice::Waveform::dc(0.7));
    const spice::Waveform release =
        spice::Waveform::pwl({{0.1e-9, 1.0}, {0.11e-9, 0.0}});
    f.ckt.add_switch("Sa", bl_high ? f.bl : f.blb, f.vdd, 1e2, 1e12, release);
    f.ckt.add_switch("Sb", bl_high ? f.blb : f.bl, lowrail, 1e2, 1e12,
                     release);
    sa.v_sae->set_waveform(
        spice::Waveform::pwl({{0.2e-9, 0.0}, {0.21e-9, 0.8}}));
    const spice::TransientResult tr =
        spice::solve_transient(f.ckt, spice::ambient_context(), {}, 1.5e-9);
    ASSERT_TRUE(tr.completed) << tr.message;
    const double v_bl = tr.final_voltage(f.bl);
    const double v_blb = tr.final_voltage(f.blb);
    EXPECT_GT(bl_high ? v_bl : v_blb, 0.75);
    EXPECT_LT(bl_high ? v_blb : v_bl, 0.05);
}

INSTANTIATE_TEST_SUITE_P(BothPolarities, SenseAmpPolarity,
                         ::testing::Bool());

TEST(Periphery, FullReadPathWithRealPeriphery) {
    // The proposed cell read through transistor periphery: precharge, WL
    // assert with GND-lowering RA, differential development, sense-amp
    // regeneration to full swing — no ideal switches in the signal path.
    const CellConfig cc = proposed_design(0.8, models()).config;
    spice::Circuit ckt;
    const auto vdd = ckt.add_node("vdd");
    const auto vss = ckt.add_node("vss");
    const auto bl = ckt.add_node("bl");
    const auto blb = ckt.add_node("blb");
    const auto wl = ckt.add_node("wl");
    const auto q = ckt.add_node("q");
    const auto qb = ckt.add_node("qb");
    ckt.add_vsource("Vvdd", vdd, spice::kGround, spice::Waveform::dc(0.8));
    auto& v_vss = ckt.add_vsource("Vvss", vss, spice::kGround,
                                  spice::Waveform::dc(0.0));
    auto& v_wl = ckt.add_vsource("Vwl", wl, spice::kGround,
                                 spice::Waveform::dc(0.8));
    ckt.add_capacitor("Cbl", bl, spice::kGround, 10e-15);
    ckt.add_capacitor("Cblb", blb, spice::kGround, 10e-15);
    build_6t_devices(ckt, cc, {q, qb, bl, blb, wl, vdd, vss}, "");

    PeripheryConfig pc = pconfig();
    const Precharge pre = attach_precharge(ckt, "p_", bl, blb, vdd, pc);
    const SenseAmp sa = attach_sense_amp(ckt, "s_", bl, blb, vdd, pc);

    // Timeline: precharge 0.05-0.55 ns; RA from 0.1 ns; WL 0.7-1.2 ns;
    // SAE at 1.0 ns.
    pre.v_pre->set_waveform(spice::Waveform::pwl(
        {{0.05e-9, 0.8}, {0.06e-9, 0.0}, {0.55e-9, 0.0}, {0.56e-9, 0.8}}));
    v_vss.set_waveform(spice::Waveform::pwl(
        {{0.1e-9, 0.0}, {0.12e-9, -0.24}, {1.6e-9, -0.24}, {1.62e-9, 0.0}}));
    v_wl.set_waveform(spice::Waveform::pwl(
        {{0.7e-9, 0.8}, {0.705e-9, 0.0}, {1.2e-9, 0.0}, {1.205e-9, 0.8}}));
    sa.v_sae->set_waveform(
        spice::Waveform::pwl({{1.0e-9, 0.0}, {1.01e-9, 0.8}}));

    // Hold q = 0: the cell discharges BL, so the SA must drive BL low.
    ckt.prepare();
    la::Vector guess(ckt.num_unknowns(), 0.0);
    guess[vdd - 1] = 0.8;
    guess[qb - 1] = 0.8;
    guess[bl - 1] = 0.8;
    guess[blb - 1] = 0.8;
    guess[wl - 1] = 0.8;
    const spice::TransientResult tr =
        spice::solve_transient(ckt, spice::ambient_context(), {}, 1.8e-9,
                               nullptr, &guess);
    ASSERT_TRUE(tr.completed) << tr.message;

    EXPECT_LT(tr.final_voltage(bl), 0.05) << "SA must slam BL low (q = 0)";
    EXPECT_GT(tr.final_voltage(blb), 0.75);
    // Non-destructive: the cell still holds its 0.
    EXPECT_LT(tr.final_voltage(q), 0.2);
    EXPECT_GT(tr.final_voltage(qb), 0.6);
}

TEST(Periphery, FullWritePathWithRealDriver) {
    // Cell + transistor write driver: the driver pulls the bitline pair to
    // the datum, the wordline opens, the cell flips — no ideal bitline
    // sources in the path.
    const CellConfig cc = proposed_design(0.8, models()).config;
    spice::Circuit ckt;
    const auto vdd = ckt.add_node("vdd");
    const auto bl = ckt.add_node("bl");
    const auto blb = ckt.add_node("blb");
    const auto wl = ckt.add_node("wl");
    const auto q = ckt.add_node("q");
    const auto qb = ckt.add_node("qb");
    ckt.add_vsource("Vvdd", vdd, spice::kGround, spice::Waveform::dc(0.8));
    auto& v_wl = ckt.add_vsource("Vwl", wl, spice::kGround,
                                 spice::Waveform::dc(0.8));
    ckt.add_capacitor("Cbl", bl, spice::kGround, 10e-15);
    ckt.add_capacitor("Cblb", blb, spice::kGround, 10e-15);
    build_6t_devices(ckt, cc, {q, qb, bl, blb, wl, vdd, spice::kGround}, "");
    const Precharge pre = attach_precharge(ckt, "p_", bl, blb, vdd, pconfig());
    const WriteDriver drv =
        attach_write_driver(ckt, "d_", bl, blb, vdd, pconfig());
    // Initialization clamp: start with q = 0.
    ckt.add_switch("Sinit", q, spice::kGround, 1e2, 1e12,
                   spice::Waveform::pwl({{20e-12, 1.0}, {25e-12, 0.0}}));

    // Timeline: precharge until 0.3 ns; driver enabled (data = 1) from
    // 0.4 ns; WL 0.6-1.0 ns.
    pre.v_pre->set_waveform(spice::Waveform::pwl(
        {{0.05e-9, 0.8}, {0.06e-9, 0.0}, {0.3e-9, 0.0}, {0.31e-9, 0.8}}));
    drv.v_data->set_waveform(spice::Waveform::dc(0.8));
    drv.v_datab->set_waveform(spice::Waveform::dc(0.0));
    drv.v_en_n->set_waveform(
        spice::Waveform::pwl({{0.4e-9, 0.0}, {0.41e-9, 0.8}}));
    drv.v_en_p->set_waveform(
        spice::Waveform::pwl({{0.4e-9, 0.8}, {0.41e-9, 0.0}}));
    v_wl.set_waveform(spice::Waveform::pwl(
        {{0.6e-9, 0.8}, {0.605e-9, 0.0}, {1.0e-9, 0.0}, {1.005e-9, 0.8}}));

    ckt.prepare();
    la::Vector guess(ckt.num_unknowns(), 0.0);
    guess[vdd - 1] = 0.8;
    guess[qb - 1] = 0.8;
    const spice::TransientResult tr =
        spice::solve_transient(ckt, spice::ambient_context(), {}, 1.5e-9,
                               nullptr, &guess);
    ASSERT_TRUE(tr.completed) << tr.message;
    EXPECT_GT(tr.final_voltage(q), 0.7) << "write 1 must land";
    EXPECT_LT(tr.final_voltage(qb), 0.1);
}

} // namespace
} // namespace tfetsram::sram
