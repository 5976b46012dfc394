// Fig. 12 reproduction: WLcrit (a) and DRNM (b) versus VDD for the
// compared designs. The asymmetric 6T cell has no write separatrix, so its
// WLcrit is undefined and the WLcrit plot carries only three curves — the
// same caveat the paper notes.

#include <cmath>

#include "figures.hpp"

namespace tfetsram::bench {

int run_fig12_margins(const runner::RunnerConfig& config) {
    banner("Fig. 12", "write and read margins vs VDD");
    const sram::MetricOptions opts;

    auto csv = open_csv("fig12_margins", config);
    csv.write_row(
        std::vector<std::string>{"vdd", "design", "wlcrit", "drnm"});

    TablePrinter wl_table([&] {
        std::vector<std::string> h = {"VDD"};
        for (const auto& d :
             sram::comparison_designs(0.8, standard_models()))
            if (d.wlcrit_defined)
                h.push_back(d.name);
        return h;
    }());
    TablePrinter dr_table([&] {
        std::vector<std::string> h = {"VDD"};
        for (const auto& d :
             sram::comparison_designs(0.8, standard_models()))
            h.push_back(d.name);
        return h;
    }());

    for (double vdd : vdd_sweep()) {
        std::vector<std::string> wl_row = {format_sci(vdd, 1)};
        std::vector<std::string> dr_row = {format_sci(vdd, 1)};
        for (const auto& design :
             sram::comparison_designs(vdd, standard_models())) {
            sram::SramCell cell = sram::build_cell(design.config);
            double wl = std::nan("");
            if (design.wlcrit_defined) {
                wl = sram::critical_wordline_pulse(cell, design.write_assist,
                                                   opts);
                wl_row.push_back(core::format_pulse(wl));
            }
            const auto d =
                sram::dynamic_read_noise_margin(cell, design.read_assist, opts);
            const double drnm = d.valid && !d.flipped ? d.drnm : 0.0;
            dr_row.push_back(core::format_margin(drnm));
            csv.write_row({format_sci(vdd, 2), design.name,
                           format_sci(wl, 6), format_sci(drnm, 6)});
        }
        wl_table.add_row(wl_row);
        dr_table.add_row(dr_row);
    }
    std::cout << "-- WLcrit (asymmetric 6T: undefined, no separatrix) --\n"
              << wl_table.render() << '\n'
              << "-- DRNM --\n"
              << dr_table.render();

    expectation(
        "all TFET designs have larger WLcrit than CMOS (unidirectional "
        "conduction); among them the proposed cell is smallest. DRNM: the "
        "7T cell leads at high VDD thanks to its read buffer; the proposed "
        "cell with GND-lowering RA takes over at the low-VDD end.");
    return 0;
}

} // namespace tfetsram::bench
