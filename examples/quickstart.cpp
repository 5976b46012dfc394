// Quickstart: build the paper's proposed cell (6T SRAM with inward pTFET
// access, beta = 0.6, GND-lowering read assist), exercise a hold, a write,
// and a read, and print what happened. This is the smallest end-to-end tour
// of the public API.

#include <cstdio>
#include <iostream>

#include "sram/area.hpp"
#include "sram/designs.hpp"
#include "sram/metrics.hpp"
#include "spice/transient.hpp"
#include "util/units.hpp"

using namespace tfetsram;

int main() {
    std::cout << "Building device models (TCAD-like extraction into lookup "
                 "tables)...\n";
    const device::ModelSet models = device::make_model_set();

    // An explicit simulation context pinned to the cell: every operation
    // and metric below runs under it (solver policy, counters).
    const spice::SimContext ctx(spice::SimConfig::from_env());
    const sram::DesignSpec design = sram::proposed_design(0.8, models);
    sram::SramCell cell = sram::build_cell(design.config, &ctx);
    std::cout << "Cell: " << design.name << " at VDD = " << design.config.vdd
              << " V, beta = " << design.config.beta << "\n\n";

    // --- Hold: static power ---
    const sram::MetricOptions opts;
    const double p_hold = sram::worst_hold_static_power(cell, opts);
    std::cout << "Hold static power: " << format_sci(p_hold, 2) << " W\n";

    // --- Write: flip the cell and watch the storage nodes ---
    const sram::OperationWindow w =
        sram::program_write(cell, /*value=*/true, /*pulse_width=*/300e-12);
    const sram::HoldState hs = sram::solve_hold_state(cell, /*q_high=*/false,
                                                      opts.solver);
    if (!hs.converged || !hs.state_ok) {
        std::cerr << "could not establish the initial hold state\n";
        return 1;
    }
    const spice::TransientResult wr = spice::solve_transient(
        cell.circuit, ctx, opts.solver, w.t_end, nullptr, &hs.x);
    if (!wr.completed) {
        std::cerr << "write transient failed: " << wr.message << "\n";
        return 1;
    }
    std::cout << "\nWrite 1 with a 300 ps wordline pulse:\n";
    std::printf("  %10s  %8s  %8s\n", "t", "v(q)", "v(qb)");
    for (double t : {0.0, w.wl_start, w.wl_mid + 50e-12, w.wl_end, w.t_end})
        std::printf("  %10s  %7.3f V %7.3f V\n", format_si(t, "s").c_str(),
                    wr.voltage_at(cell.q, t), wr.voltage_at(cell.qb, t));
    const bool flipped =
        wr.final_voltage(cell.q) > wr.final_voltage(cell.qb);
    std::cout << "  -> cell " << (flipped ? "flipped: write OK" : "DID NOT flip")
              << "\n";

    // --- Metrics: the paper's figures of merit ---
    std::cout << "\nFigures of merit (with the design's assists):\n";
    const double wlcrit =
        sram::critical_wordline_pulse(cell, design.write_assist, opts);
    std::cout << "  WLcrit      = " << format_si(wlcrit, "s") << "\n";
    const sram::DrnmResult drnm =
        sram::dynamic_read_noise_margin(cell, design.read_assist, opts);
    std::cout << "  DRNM        = " << format_si(drnm.drnm, "V")
              << (drnm.flipped ? "  (read disturb flip!)" : "") << "\n";
    const double td_w = sram::write_delay(cell, design.write_assist, opts);
    std::cout << "  write delay = " << format_si(td_w, "s") << "\n";
    const double td_r = sram::read_delay(cell, design.read_assist, opts);
    std::cout << "  read delay  = " << format_si(td_r, "s") << "\n";
    std::cout << "  cell area   = " << sram::cell_area(cell) << " um^2\n";

    return flipped ? 0 : 1;
}
