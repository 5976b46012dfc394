// Differential-identity harness for the topology-as-data refactor: a
// frozen copy of the legacy hand-wired build_cell (the pre-spec version,
// lifted verbatim from src/sram/cell.cpp before CellSpec landed) is built
// side by side with the spec-driven instantiation for every legacy
// CellKind. Node tables, device stamp sequences, DC hold solutions, and
// the headline metrics (WLcrit, DRNM) must match bit for bit — both
// paths share the exact same ModelSet pointers, so any divergence is a
// topology or emission-order regression, not numerics.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "device/models.hpp"
#include "sram/cell.hpp"
#include "sram/cell_spec.hpp"
#include "sram/metrics.hpp"
#include "sram/operations.hpp"

namespace tfetsram::sram {
namespace legacy {

// ---- frozen pre-refactor builder (do not modernize) --------------------

void build_core(SramCell& cell, const spice::TransistorModelPtr& n_model,
                const spice::TransistorModelPtr& p_model) {
    const CellConfig& cfg = cell.config;
    const double w_pd = cfg.beta * cfg.w_access;
    spice::Circuit& ckt = cell.circuit;

    ckt.add_transistor("PDL", n_model, cell.q, cell.qb, cell.vss, w_pd);
    ckt.add_transistor("PUL", p_model, cell.q, cell.qb, cell.vdd, cfg.w_pullup);
    ckt.add_transistor("PDR", n_model, cell.qb, cell.q, cell.vss, w_pd);
    ckt.add_transistor("PUR", p_model, cell.qb, cell.q, cell.vdd, cfg.w_pullup);

    ckt.add_capacitor("Cq", cell.q, spice::kGround, cfg.c_node);
    ckt.add_capacitor("Cqb", cell.qb, spice::kGround, cfg.c_node);
}

spice::Transistor& build_access(SramCell& cell, const std::string& label,
                                AccessDevice access, spice::NodeId bitline,
                                spice::NodeId store) {
    const device::ModelSet& m = cell.config.models;
    spice::Circuit& ckt = cell.circuit;
    const double w = cell.config.w_access;
    switch (access) {
    case AccessDevice::kInwardN:
        return ckt.add_transistor(label, m.ntfet, bitline, cell.wl, store, w);
    case AccessDevice::kInwardP:
        return ckt.add_transistor(label, m.ptfet, store, cell.wl, bitline, w);
    case AccessDevice::kOutwardN:
        return ckt.add_transistor(label, m.ntfet, store, cell.wl, bitline, w);
    case AccessDevice::kOutwardP:
        return ckt.add_transistor(label, m.ptfet, bitline, cell.wl, store, w);
    case AccessDevice::kCmos:
        return ckt.add_transistor(label, m.nmos, bitline, cell.wl, store, w);
    }
    throw std::invalid_argument("build_access: bad access device");
}

void build_bitline(SramCell& cell, const std::string& name,
                   spice::NodeId bitline, spice::VoltageSource*& src,
                   spice::TimedSwitch*& sw) {
    spice::Circuit& ckt = cell.circuit;
    const spice::NodeId drv = ckt.add_node(name + "_drv");
    src = &ckt.add_vsource("V" + name, drv, spice::kGround,
                           spice::Waveform::dc(cell.config.vdd));
    sw = &ckt.add_switch("SW" + name, drv, bitline, cell.config.r_precharge,
                         1e12, spice::Waveform::dc(1.0));
    ckt.add_capacitor("C" + name, bitline, spice::kGround,
                      cell.config.c_bitline);
}

SramCell build_cell(const CellConfig& config, const spice::SimContext* sim) {
    SramCell cell;
    cell.config = config;
    cell.sim = sim;
    spice::Circuit& ckt = cell.circuit;

    cell.q = ckt.add_node("q");
    cell.qb = ckt.add_node("qb");
    cell.bl = ckt.add_node("bl");
    cell.blb = ckt.add_node("blb");
    cell.wl = ckt.add_node("wl");
    cell.vdd = ckt.add_node("vdd");
    cell.vss = ckt.add_node("vss");

    cell.v_vdd = &ckt.add_vsource("Vvdd", cell.vdd, spice::kGround,
                                  spice::Waveform::dc(config.vdd));
    cell.v_vss = &ckt.add_vsource("Vvss", cell.vss, spice::kGround,
                                  spice::Waveform::dc(0.0));

    const bool tfet_core = config.kind != CellKind::kCmos6T;
    const auto& n_core = tfet_core ? config.models.ntfet : config.models.nmos;
    const auto& p_core = tfet_core ? config.models.ptfet : config.models.pmos;

    build_bitline(cell, "bl", cell.bl, cell.v_bl, cell.sw_bl);
    build_bitline(cell, "blb", cell.blb, cell.v_blb, cell.sw_blb);

    switch (config.kind) {
    case CellKind::kCmos6T:
    case CellKind::kTfet6T: {
        const bool ptype = tfet_core && access_is_ptype(config.access);
        cell.v_wl = &ckt.add_vsource(
            "Vwl", cell.wl, spice::kGround,
            spice::Waveform::dc(ptype ? config.vdd : 0.0));
        const CellPorts ports{cell.q,  cell.qb,  cell.bl, cell.blb,
                              cell.wl, cell.vdd, cell.vss};
        build_6t_devices(ckt, config, ports, "");
        break;
    }
    case CellKind::kTfet7T: {
        build_core(cell, n_core, p_core);
        cell.v_wl = &ckt.add_vsource("Vwl", cell.wl, spice::kGround,
                                     spice::Waveform::dc(0.0));
        build_access(cell, "AXL", AccessDevice::kOutwardN, cell.bl, cell.q);
        build_access(cell, "AXR", AccessDevice::kOutwardN, cell.blb, cell.qb);
        cell.v_bl->set_waveform(spice::Waveform::dc(0.0));
        cell.v_blb->set_waveform(spice::Waveform::dc(0.0));

        cell.rbl = ckt.add_node("rbl");
        cell.rwl = ckt.add_node("rwl");
        cell.v_rwl = &ckt.add_vsource("Vrwl", cell.rwl, spice::kGround,
                                      spice::Waveform::dc(config.vdd));
        const spice::NodeId rdrv = ckt.add_node("rbl_drv");
        cell.v_rbl = &ckt.add_vsource("Vrbl", rdrv, spice::kGround,
                                      spice::Waveform::dc(config.vdd));
        cell.sw_rbl = &ckt.add_switch("SWrbl", rdrv, cell.rbl,
                                      config.r_precharge, 1e12,
                                      spice::Waveform::dc(1.0));
        ckt.add_capacitor("Crbl", cell.rbl, spice::kGround, config.c_bitline);
        ckt.add_transistor("M7", config.models.ntfet, cell.rbl, cell.qb,
                           cell.rwl, config.w_access);
        break;
    }
    case CellKind::kTfetAsym6T: {
        build_core(cell, n_core, p_core);
        cell.v_wl = &ckt.add_vsource("Vwl", cell.wl, spice::kGround,
                                     spice::Waveform::dc(0.0));
        build_access(cell, "AXL", AccessDevice::kOutwardN, cell.bl, cell.q);
        build_access(cell, "AXR", AccessDevice::kInwardN, cell.blb, cell.qb);
        break;
    }
    }
    ckt.prepare();
    return cell;
}

} // namespace legacy

namespace {

// Tabulated models shared by both builders — identical pointers, so
// device evaluation is the same code path on the same tables.
const device::ModelSet& shared_models() {
    static const device::ModelSet set = device::make_model_set({}, true);
    return set;
}

CellConfig config_for(CellKind kind, AccessDevice access) {
    CellConfig cfg;
    cfg.kind = kind;
    cfg.access = access;
    cfg.models = shared_models();
    return cfg;
}

struct LegacyCase {
    const char* name;
    CellKind kind;
    AccessDevice access;
};

// Without this gtest prints the parameter as raw object bytes, which include
// the ASLR-randomised address of `name`, so the listed test names (and the
// ctest names discovered from them) would change on every build.
void PrintTo(const LegacyCase& tc, std::ostream* os) { *os << tc.name; }

const std::vector<LegacyCase>& legacy_cases() {
    static const std::vector<LegacyCase> cases = {
        {"tfet6t_inwardP", CellKind::kTfet6T, AccessDevice::kInwardP},
        {"tfet6t_outwardN", CellKind::kTfet6T, AccessDevice::kOutwardN},
        {"cmos6t", CellKind::kCmos6T, AccessDevice::kCmos},
        {"tfet7t", CellKind::kTfet7T, AccessDevice::kOutwardN},
        {"asym6t", CellKind::kTfetAsym6T, AccessDevice::kOutwardN},
    };
    return cases;
}

std::vector<std::string> node_names(const spice::Circuit& ckt) {
    std::vector<std::string> names;
    for (spice::NodeId n = 0; n < ckt.num_nodes(); ++n)
        names.push_back(ckt.node_name(n));
    return names;
}

// The stamp sequence: every device in registration order. Emission order
// decides MNA row/column layout, so identity here (together with the node
// table) pins the whole system matrix.
std::vector<std::string> stamp_sequence(const spice::Circuit& ckt) {
    std::vector<std::string> labels;
    for (const auto& dev : ckt.devices())
        labels.push_back(dev->label());
    return labels;
}

class CellZooDiff : public ::testing::TestWithParam<LegacyCase> {};

TEST_P(CellZooDiff, TopologyIdentical) {
    const LegacyCase& tc = GetParam();
    const CellConfig cfg = config_for(tc.kind, tc.access);
    const SramCell ref = legacy::build_cell(cfg, nullptr);
    const SramCell now = build_cell(cfg);

    EXPECT_EQ(node_names(ref.circuit), node_names(now.circuit));
    EXPECT_EQ(stamp_sequence(ref.circuit), stamp_sequence(now.circuit));
    EXPECT_EQ(ref.circuit.num_unknowns(), now.circuit.num_unknowns());
    EXPECT_EQ(ref.circuit.voltage_sources().size(),
              now.circuit.voltage_sources().size());

    // Port handles resolve to the same node ids.
    EXPECT_EQ(ref.q, now.q);
    EXPECT_EQ(ref.qb, now.qb);
    EXPECT_EQ(ref.bl, now.bl);
    EXPECT_EQ(ref.blb, now.blb);
    EXPECT_EQ(ref.wl, now.wl);
    EXPECT_EQ(ref.rbl, now.rbl);
    EXPECT_EQ(ref.rwl, now.rwl);
    EXPECT_EQ(ref.v_rwl == nullptr, now.v_rwl == nullptr);
    EXPECT_EQ(ref.sw_rbl == nullptr, now.sw_rbl == nullptr);
}

TEST_P(CellZooDiff, HoldSolutionsBitIdentical) {
    const LegacyCase& tc = GetParam();
    const CellConfig cfg = config_for(tc.kind, tc.access);
    SramCell ref = legacy::build_cell(cfg, nullptr);
    SramCell now = build_cell(cfg);
    program_hold(ref);
    program_hold(now);

    const spice::SolverOptions opts;
    for (bool q_high : {false, true}) {
        const HoldState a = solve_hold_state(ref, q_high, opts);
        const HoldState b = solve_hold_state(now, q_high, opts);
        ASSERT_TRUE(a.converged);
        ASSERT_TRUE(b.converged);
        EXPECT_EQ(a.state_ok, b.state_ok);
        ASSERT_EQ(a.x.size(), b.x.size());
        for (std::size_t i = 0; i < a.x.size(); ++i)
            EXPECT_EQ(a.x[i], b.x[i]) << "unknown " << i << " q_high=" << q_high;
    }
}

TEST_P(CellZooDiff, MetricsBitIdentical) {
    const LegacyCase& tc = GetParam();
    const CellConfig cfg = config_for(tc.kind, tc.access);
    SramCell ref = legacy::build_cell(cfg, nullptr);
    SramCell now = build_cell(cfg);

    const MetricOptions opts;
    if (builtin_spec(tc.kind).wlcrit_defined) {
        const double wl_ref = critical_wordline_pulse(ref, Assist::kNone, opts);
        const double wl_now = critical_wordline_pulse(now, Assist::kNone, opts);
        EXPECT_EQ(wl_ref, wl_now);
    }
    const DrnmResult dr_ref = dynamic_read_noise_margin(ref, Assist::kNone, opts);
    const DrnmResult dr_now = dynamic_read_noise_margin(now, Assist::kNone, opts);
    EXPECT_EQ(dr_ref.valid, dr_now.valid);
    EXPECT_EQ(dr_ref.flipped, dr_now.flipped);
    EXPECT_EQ(dr_ref.drnm, dr_now.drnm);

    const double p_ref = worst_hold_static_power(ref, opts);
    const double p_now = worst_hold_static_power(now, opts);
    EXPECT_EQ(p_ref, p_now);
}

INSTANTIATE_TEST_SUITE_P(LegacyKinds, CellZooDiff,
                         ::testing::ValuesIn(legacy_cases()),
                         [](const ::testing::TestParamInfo<LegacyCase>& tpi) {
                             return std::string(tpi.param.name);
                         });

// The registry is the naming authority: display names the reports print
// must keep their historical values for the legacy four.
TEST(CellZoo, LegacyDisplayNamesStable) {
    EXPECT_STREQ(to_string(CellKind::kCmos6T), "6T CMOS SRAM");
    EXPECT_STREQ(to_string(CellKind::kTfet6T), "6T TFET SRAM");
    EXPECT_STREQ(to_string(CellKind::kTfet7T), "7T TFET SRAM");
    EXPECT_STREQ(to_string(CellKind::kTfetAsym6T), "asymmetric 6T TFET SRAM");
}

} // namespace
} // namespace tfetsram::sram
