// Cell-construction tests: netlist topology for every cell kind and access
// device, orientation wiring (the crux of the inward/outward distinction),
// wordline polarity, and sizing.

#include <gtest/gtest.h>

#include "sram/cell.hpp"

namespace tfetsram::sram {
namespace {

device::ModelSet models() {
    // Analytic models: table extraction is unnecessary for structure tests.
    static const device::ModelSet set = device::make_model_set({}, false);
    return set;
}

CellConfig config(CellKind kind, AccessDevice access, double beta = 1.0) {
    CellConfig cfg;
    cfg.kind = kind;
    cfg.access = access;
    cfg.beta = beta;
    cfg.models = models();
    return cfg;
}

const spice::Transistor* find(const SramCell& cell, const std::string& label) {
    for (const spice::Transistor* t : cell.circuit.transistors())
        if (t->label() == label)
            return t;
    return nullptr;
}

TEST(Cell, SixTransistorCount) {
    for (CellKind kind : {CellKind::kCmos6T, CellKind::kTfet6T,
                          CellKind::kTfetAsym6T}) {
        const SramCell cell = build_cell(config(kind, AccessDevice::kInwardP));
        EXPECT_EQ(cell.circuit.transistors().size(), 6u) << to_string(kind);
    }
}

TEST(Cell, SevenTransistorCount) {
    const SramCell cell =
        build_cell(config(CellKind::kTfet7T, AccessDevice::kInwardP));
    EXPECT_EQ(cell.circuit.transistors().size(), 7u);
    EXPECT_NE(cell.v_rwl, nullptr);
    EXPECT_NE(cell.v_rbl, nullptr);
    EXPECT_NE(cell.sw_rbl, nullptr);
}

TEST(Cell, HandlesPopulated) {
    const SramCell cell =
        build_cell(config(CellKind::kTfet6T, AccessDevice::kInwardP));
    EXPECT_NE(cell.v_vdd, nullptr);
    EXPECT_NE(cell.v_vss, nullptr);
    EXPECT_NE(cell.v_bl, nullptr);
    EXPECT_NE(cell.v_blb, nullptr);
    EXPECT_NE(cell.v_wl, nullptr);
    EXPECT_NE(cell.sw_bl, nullptr);
    EXPECT_NE(cell.sw_blb, nullptr);
    EXPECT_NE(cell.q, cell.qb);
}

TEST(Cell, InwardPtfetOrientation) {
    // Inward p-type: source at the bitline, drain at the storage node —
    // conducts bitline -> cell only.
    const SramCell cell =
        build_cell(config(CellKind::kTfet6T, AccessDevice::kInwardP));
    const spice::Transistor* axl = find(cell, "AXL");
    ASSERT_NE(axl, nullptr);
    EXPECT_EQ(axl->source(), cell.bl);
    EXPECT_EQ(axl->drain(), cell.q);
    EXPECT_EQ(std::string(axl->model().name()), "pTFET");
}

TEST(Cell, InwardNtfetOrientation) {
    // Inward n-type: drain at the bitline (nTFET conducts drain -> source).
    const SramCell cell =
        build_cell(config(CellKind::kTfet6T, AccessDevice::kInwardN));
    const spice::Transistor* axl = find(cell, "AXL");
    ASSERT_NE(axl, nullptr);
    EXPECT_EQ(axl->drain(), cell.bl);
    EXPECT_EQ(axl->source(), cell.q);
    EXPECT_EQ(std::string(axl->model().name()), "nTFET");
}

TEST(Cell, OutwardOrientationsMirrorInward) {
    const SramCell n =
        build_cell(config(CellKind::kTfet6T, AccessDevice::kOutwardN));
    const spice::Transistor* axn = find(n, "AXR");
    ASSERT_NE(axn, nullptr);
    EXPECT_EQ(axn->drain(), n.qb);
    EXPECT_EQ(axn->source(), n.blb);

    const SramCell p =
        build_cell(config(CellKind::kTfet6T, AccessDevice::kOutwardP));
    const spice::Transistor* axp = find(p, "AXR");
    ASSERT_NE(axp, nullptr);
    EXPECT_EQ(axp->source(), p.qb);
    EXPECT_EQ(axp->drain(), p.blb);
}

TEST(Cell, WordlinePolarity) {
    const SramCell p =
        build_cell(config(CellKind::kTfet6T, AccessDevice::kInwardP));
    EXPECT_DOUBLE_EQ(p.wl_active_level(), 0.0);
    EXPECT_DOUBLE_EQ(p.wl_inactive_level(), p.config.vdd);

    const SramCell n =
        build_cell(config(CellKind::kTfet6T, AccessDevice::kInwardN));
    EXPECT_DOUBLE_EQ(n.wl_active_level(), n.config.vdd);
    EXPECT_DOUBLE_EQ(n.wl_inactive_level(), 0.0);

    const SramCell c =
        build_cell(config(CellKind::kCmos6T, AccessDevice::kCmos));
    EXPECT_DOUBLE_EQ(c.wl_active_level(), c.config.vdd);
}

TEST(Cell, BetaSizesPullDowns) {
    const SramCell cell =
        build_cell(config(CellKind::kTfet6T, AccessDevice::kInwardP, 2.5));
    const spice::Transistor* pdl = find(cell, "PDL");
    const spice::Transistor* axl = find(cell, "AXL");
    ASSERT_NE(pdl, nullptr);
    ASSERT_NE(axl, nullptr);
    EXPECT_DOUBLE_EQ(pdl->width_um() / axl->width_um(), 2.5);
}

TEST(Cell, CmosCoreUsesMosfets) {
    const SramCell cell =
        build_cell(config(CellKind::kCmos6T, AccessDevice::kCmos));
    const spice::Transistor* pdl = find(cell, "PDL");
    const spice::Transistor* pul = find(cell, "PUL");
    ASSERT_NE(pdl, nullptr);
    ASSERT_NE(pul, nullptr);
    EXPECT_EQ(std::string(pdl->model().name()), "nMOS");
    EXPECT_EQ(std::string(pul->model().name()), "pMOS");
}

TEST(Cell, SevenTWriteBitlinesIdleLow) {
    // [14] clamps the write bitlines to 0 during hold to avoid reverse
    // biasing the outward access devices.
    const SramCell cell =
        build_cell(config(CellKind::kTfet7T, AccessDevice::kInwardP));
    EXPECT_DOUBLE_EQ(cell.v_bl->waveform().initial(), 0.0);
    EXPECT_DOUBLE_EQ(cell.v_blb->waveform().initial(), 0.0);
}

TEST(Cell, SevenTReadBufferWiring) {
    const SramCell cell =
        build_cell(config(CellKind::kTfet7T, AccessDevice::kInwardP));
    const spice::Transistor* m7 = find(cell, "M7");
    ASSERT_NE(m7, nullptr);
    EXPECT_EQ(m7->gate(), cell.qb);
    EXPECT_EQ(m7->drain(), cell.rbl);
    EXPECT_EQ(m7->source(), cell.rwl);
}

TEST(Cell, AsymmetricAccessMix) {
    const SramCell cell =
        build_cell(config(CellKind::kTfetAsym6T, AccessDevice::kInwardP));
    const spice::Transistor* axl = find(cell, "AXL");
    const spice::Transistor* axr = find(cell, "AXR");
    ASSERT_NE(axl, nullptr);
    ASSERT_NE(axr, nullptr);
    // Left: outward (drain at q); right: inward (drain at bitline).
    EXPECT_EQ(axl->drain(), cell.q);
    EXPECT_EQ(axr->drain(), cell.blb);
}

TEST(Cell, RejectsInvalidConfig) {
    CellConfig bad = config(CellKind::kTfet6T, AccessDevice::kInwardP);
    bad.beta = 0.0;
    EXPECT_THROW(build_cell(bad), contract_violation);
    CellConfig no_models = config(CellKind::kTfet6T, AccessDevice::kInwardP);
    no_models.models = {};
    EXPECT_THROW(build_cell(no_models), contract_violation);
}

TEST(Cell, EnumNames) {
    EXPECT_STREQ(to_string(AccessDevice::kInwardP), "inward pTFET");
    EXPECT_STREQ(to_string(CellKind::kTfet7T), "7T TFET SRAM");
    EXPECT_TRUE(access_is_ptype(AccessDevice::kOutwardP));
    EXPECT_FALSE(access_is_ptype(AccessDevice::kCmos));
}

} // namespace
} // namespace tfetsram::sram
