// A four-row SRAM column built directly on the circuit API: four of the
// paper's proposed cells share a bitline pair with a precharge network.
// The example writes a pattern row by row, then reads each row back with
// the GND-lowering read assist, verifying that unaccessed rows hold their
// data — an end-to-end functional demonstration beyond single-cell metrics.

#include <array>
#include <cstdio>
#include <iostream>
#include <vector>

#include "device/models.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"
#include "sram/assist.hpp"
#include "util/units.hpp"

using namespace tfetsram;
using spice::NodeId;
using spice::Waveform;

namespace {

constexpr double kVdd = 0.8;
constexpr double kBeta = 0.6;
constexpr int kRows = 4;

struct Row {
    NodeId q = 0;
    NodeId qb = 0;
    spice::VoltageSource* wl = nullptr;
    spice::VoltageSource* vss = nullptr; // per-row virtual ground (for RA)
};

struct Column {
    spice::Circuit ckt;
    NodeId bl = 0;
    NodeId blb = 0;
    spice::VoltageSource* v_bl = nullptr;
    spice::VoltageSource* v_blb = nullptr;
    spice::TimedSwitch* sw_bl = nullptr;
    spice::TimedSwitch* sw_blb = nullptr;
    std::array<Row, kRows> rows;
};

Column build_column(const device::ModelSet& m) {
    Column col;
    spice::Circuit& c = col.ckt;
    const NodeId vdd = c.add_node("vdd");
    c.add_vsource("Vvdd", vdd, spice::kGround, Waveform::dc(kVdd));

    col.bl = c.add_node("bl");
    col.blb = c.add_node("blb");
    const NodeId bld = c.add_node("bl_drv");
    const NodeId blbd = c.add_node("blb_drv");
    col.v_bl = &c.add_vsource("Vbl", bld, spice::kGround, Waveform::dc(kVdd));
    col.v_blb = &c.add_vsource("Vblb", blbd, spice::kGround, Waveform::dc(kVdd));
    col.sw_bl = &c.add_switch("SWbl", bld, col.bl, 1e3, 1e12, Waveform::dc(1.0));
    col.sw_blb =
        &c.add_switch("SWblb", blbd, col.blb, 1e3, 1e12, Waveform::dc(1.0));
    c.add_capacitor("Cbl", col.bl, spice::kGround, 20e-15);
    c.add_capacitor("Cblb", col.blb, spice::kGround, 20e-15);

    for (int r = 0; r < kRows; ++r) {
        Row& row = col.rows[r];
        const std::string id = std::to_string(r);
        row.q = c.add_node("q" + id);
        row.qb = c.add_node("qb" + id);
        const NodeId wl = c.add_node("wl" + id);
        const NodeId vss = c.add_node("vss" + id);
        row.wl = &c.add_vsource("Vwl" + id, wl, spice::kGround,
                                Waveform::dc(kVdd)); // inactive (p access)
        row.vss = &c.add_vsource("Vvss" + id, vss, spice::kGround,
                                 Waveform::dc(0.0));
        // Cross-coupled inverters, beta = 0.6.
        c.add_transistor("PDL" + id, m.ntfet, row.q, row.qb, vss, kBeta);
        c.add_transistor("PUL" + id, m.ptfet, row.q, row.qb, vdd, 0.5);
        c.add_transistor("PDR" + id, m.ntfet, row.qb, row.q, vss, kBeta);
        c.add_transistor("PUR" + id, m.ptfet, row.qb, row.q, vdd, 0.5);
        // Inward pTFET access devices (source at the bitline).
        c.add_transistor("AXL" + id, m.ptfet, row.q, wl, col.bl, 1.0);
        c.add_transistor("AXR" + id, m.ptfet, row.qb, wl, col.blb, 1.0);
        c.add_capacitor("Cq" + id, row.q, spice::kGround, 0.25e-15);
        c.add_capacitor("Cqb" + id, row.qb, spice::kGround, 0.25e-15);
    }
    c.prepare();
    return col;
}

/// DC hold state with each row holding the given value.
la::Vector settle(Column& col, const spice::SimContext& ctx,
                  const std::array<bool, kRows>& data) {
    spice::DcResult d0 = spice::solve_dc(col.ckt, ctx, {});
    la::Vector guess = d0.x;
    for (int r = 0; r < kRows; ++r) {
        guess[col.rows[r].q - 1] = data[r] ? kVdd : 0.0;
        guess[col.rows[r].qb - 1] = data[r] ? 0.0 : kVdd;
    }
    const spice::DcResult d1 =
        spice::solve_dc(col.ckt, ctx, {}, 0.0, &guess);
    TFET_ASSERT(d1.converged);
    return d1.x;
}

/// Program a write of `value` into `row`; everything quiescent otherwise.
double program_write(Column& col, int row, bool value) {
    for (Row& r : col.rows) {
        r.wl->set_waveform(Waveform::dc(kVdd));
        r.vss->set_waveform(Waveform::dc(0.0));
    }
    col.sw_bl->set_control(Waveform::dc(1.0));
    col.sw_blb->set_control(Waveform::dc(1.0));
    const double t0 = 50e-12;
    const double pulse = 300e-12;
    col.rows[row].wl->set_waveform(
        Waveform::pulse(kVdd, 0.0, t0, 5e-12, pulse, 5e-12));
    col.v_bl->set_waveform(
        Waveform::pulse(kVdd, value ? kVdd : 0.0, t0 - 30e-12, 10e-12,
                        pulse + 80e-12, 10e-12));
    col.v_blb->set_waveform(
        Waveform::pulse(kVdd, value ? 0.0 : kVdd, t0 - 30e-12, 10e-12,
                        pulse + 80e-12, 10e-12));
    return t0 + pulse + 400e-12; // t_end
}

/// Program a read of `row` with the GND-lowering assist on that row;
/// returns {t_end, sense start}. Bitlines float from the precharge.
struct ReadPlan {
    double t_end;
    double t_sense;
};
ReadPlan program_read(Column& col, int row) {
    for (Row& r : col.rows) {
        r.wl->set_waveform(Waveform::dc(kVdd));
        r.vss->set_waveform(Waveform::dc(0.0));
    }
    col.v_bl->set_waveform(Waveform::dc(kVdd));
    col.v_blb->set_waveform(Waveform::dc(kVdd));
    const double t0 = 100e-12;
    const double dur = 300e-12;
    // GND-lowering RA on the accessed row, led before the wordline.
    col.rows[row].vss->set_waveform(Waveform::pwl({{20e-12, 0.0},
                                                   {30e-12, -0.3 * kVdd},
                                                   {t0 + dur + 50e-12, -0.3 * kVdd},
                                                   {t0 + dur + 60e-12, 0.0}}));
    col.rows[row].wl->set_waveform(
        Waveform::pulse(kVdd, 0.0, t0, 5e-12, dur, 5e-12));
    col.sw_bl->set_control(Waveform::pwl({{t0 - 8e-12, 1.0}, {t0 - 4e-12, 0.0}}));
    col.sw_blb->set_control(
        Waveform::pwl({{t0 - 8e-12, 1.0}, {t0 - 4e-12, 0.0}}));
    return {t0 + dur + 200e-12, t0 + dur};
}

} // namespace

int main() {
    const device::ModelSet models = device::make_model_set();
    Column col = build_column(models);
    std::cout << "Built a " << kRows << "-row column: "
              << col.ckt.transistors().size() << " transistors, "
              << col.ckt.num_nodes() << " nodes\n\n";

    // One explicit simulation context for the whole demo (env-derived
    // solver policy; every solve below is attributed to it).
    const spice::SimContext ctx(spice::SimConfig::from_env());
    std::array<bool, kRows> stored = {false, false, false, false};
    la::Vector state = settle(col, ctx, stored);

    // Write the pattern 1,0,1,1 row by row.
    const std::array<bool, kRows> pattern = {true, false, true, true};
    for (int r = 0; r < kRows; ++r) {
        if (pattern[r] == stored[r])
            continue; // nothing to flip
        const double t_end = program_write(col, r, pattern[r]);
        const spice::TransientResult tr =
            spice::solve_transient(col.ckt, ctx, {}, t_end, nullptr, &state);
        if (!tr.completed) {
            std::cerr << "write failed: " << tr.message << "\n";
            return 1;
        }
        state = tr.state(tr.size() - 1);
        stored[r] = pattern[r];
        std::printf("write %d -> row %d: q=%5.3f qb=%5.3f\n", int(pattern[r]),
                    r, tr.final_voltage(col.rows[r].q),
                    tr.final_voltage(col.rows[r].qb));
    }

    // Verify every row holds the pattern, then read each row back.
    std::cout << '\n';
    bool all_ok = true;
    for (int r = 0; r < kRows; ++r) {
        const double q = spice::node_voltage(state, col.rows[r].q);
        const bool held = (q > kVdd / 2) == pattern[r];
        all_ok = all_ok && held;
        std::printf("row %d holds %d (q=%5.3f) %s\n", r, int(pattern[r]), q,
                    held ? "OK" : "CORRUPTED");
    }

    std::cout << "\nreading back with GND-lowering RA:\n";
    for (int r = 0; r < kRows; ++r) {
        const ReadPlan plan = program_read(col, r);
        const spice::TransientResult tr =
            spice::solve_transient(col.ckt, ctx, {}, plan.t_end, nullptr,
                                   &state);
        if (!tr.completed) {
            std::cerr << "read failed: " << tr.message << "\n";
            return 1;
        }
        // Differential bitline swing at the end of the access: the bitline
        // on the 0-storing side droops (charge flows into the cell).
        const double dbl = tr.voltage_at(col.bl, plan.t_sense) -
                           tr.voltage_at(col.blb, plan.t_sense);
        const bool read_value = dbl > 0.0;
        const bool still_held =
            (tr.final_voltage(col.rows[r].q) > kVdd / 2) == pattern[r];
        all_ok = all_ok && read_value == pattern[r] && still_held;
        std::printf("row %d: dBL=%+7.1f mV -> read %d (expect %d) %s%s\n", r,
                    dbl * 1e3, int(read_value), int(pattern[r]),
                    read_value == pattern[r] ? "OK" : "WRONG",
                    still_held ? "" : " (state corrupted!)");
        state = tr.state(tr.size() - 1);
    }

    std::cout << (all_ok ? "\ncolumn demo PASSED\n" : "\ncolumn demo FAILED\n");
    return all_ok ? 0 : 1;
}
