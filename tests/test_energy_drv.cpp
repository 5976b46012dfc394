// Tests for the dynamic-energy and data-retention-voltage extensions.

#include <gtest/gtest.h>

#include <cmath>

#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "spice/report.hpp"
#include "spice/transient.hpp"

namespace tfetsram::sram {
namespace {

const device::ModelSet& models() {
    static const device::ModelSet set = device::make_model_set();
    return set;
}

TEST(SourceEnergy, RcChargeEnergyMatchesTheory) {
    // Charging C to V through R draws E = C V^2 from the source
    // (half stored, half burned in R).
    spice::Circuit ckt;
    const auto in = ckt.add_node("in");
    const auto out = ckt.add_node("out");
    ckt.add_vsource("V", in, spice::kGround,
                    spice::Waveform::pwl({{1e-10, 0.0}, {1.2e-10, 1.0}}));
    ckt.add_resistor("R", in, out, 1e3);
    ckt.add_capacitor("C", out, spice::kGround, 1e-12);
    const spice::TransientResult tr =
        spice::solve_transient(ckt, spice::ambient_context(), {}, 10e-9);
    ASSERT_TRUE(tr.completed) << tr.message;
    const double e = spice::source_energy(ckt, tr, 0.0, 10e-9);
    EXPECT_NEAR(e, 1e-12 * 1.0 * 1.0, 0.1e-12);
}

TEST(SourceEnergy, QuiescentWindowDrawsAlmostNothing) {
    SramCell cell = build_cell(proposed_design(0.8, models()).config);
    program_hold(cell);
    const HoldState hs = solve_hold_state(cell, true, {});
    ASSERT_TRUE(hs.state_ok);
    const spice::TransientResult tr =
        spice::solve_transient(cell.circuit, spice::ambient_context(), {}, 1e-9,
                               nullptr, &hs.x);
    ASSERT_TRUE(tr.completed);
    const double e = spice::source_energy(cell.circuit, tr, 0.1e-9, 1e-9);
    // Leakage watts times a nanosecond plus gmin artifacts: < 1 fJ easily.
    EXPECT_LT(std::fabs(e), 1e-15);
}

TEST(Energy, WriteCostsFemtojoules) {
    SramCell cell = build_cell(proposed_design(0.8, models()).config);
    const double e = write_energy(cell, 300e-12, Assist::kNone);
    ASSERT_FALSE(std::isnan(e));
    EXPECT_GT(e, 1e-17);
    EXPECT_LT(e, 1e-13);
}

TEST(Energy, AssistAddsMeasurableOverhead) {
    // Sec. 4.3: "There is dynamic power overhead to generate lowered GND".
    SramCell cell = build_cell(proposed_design(0.8, models()).config);
    const double e_bare = read_energy(cell, Assist::kNone);
    const double e_assist = read_energy(cell, Assist::kRaGndLowering);
    ASSERT_FALSE(std::isnan(e_bare));
    ASSERT_FALSE(std::isnan(e_assist));
    EXPECT_GT(e_assist, e_bare);
}

TEST(Drv, TfetCellRetainsWellBelowHalfVdd) {
    const double drv =
        data_retention_voltage(proposed_design(0.8, models()).config);
    ASSERT_FALSE(std::isnan(drv));
    EXPECT_LT(drv, 0.4);
    EXPECT_GT(drv, 0.02);
}

TEST(Drv, CmosCellHasFiniteDrv) {
    const double drv =
        data_retention_voltage(cmos_design(0.8, models()).config);
    ASSERT_FALSE(std::isnan(drv));
    EXPECT_LT(drv, 0.5);
}

TEST(Drv, MonotoneSanity) {
    // Retention at the reported DRV + margin must hold; below it must not.
    const CellConfig cfg = proposed_design(0.8, models()).config;
    const double drv = data_retention_voltage(cfg);
    ASSERT_FALSE(std::isnan(drv));

    CellConfig above = cfg;
    above.vdd = drv + 0.05;
    SramCell cell_above = build_cell(above);
    program_hold(cell_above);
    EXPECT_TRUE(solve_hold_state(cell_above, true, {}).state_ok);
}

} // namespace
} // namespace tfetsram::sram
