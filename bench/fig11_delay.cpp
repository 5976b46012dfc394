// Fig. 11 reproduction: write delay (a) and read delay (b) versus VDD for
// the four compared designs — the proposed 6T inpTFET SRAM with
// GND-lowering RA, the 32 nm 6T CMOS SRAM, the asymmetric 6T TFET SRAM
// [15], and the 7T TFET SRAM [14].

#include <cmath>

#include "figures.hpp"

namespace tfetsram::bench {

int run_fig11_delay(const runner::RunnerConfig& config) {
    banner("Fig. 11", "write and read delay vs VDD");
    const sram::MetricOptions opts;

    auto csv = open_csv("fig11_delay", config);
    csv.write_row(std::vector<std::string>{"vdd", "design", "write_delay",
                                           "read_delay"});

    for (const char* which : {"write", "read"}) {
        TablePrinter table([&] {
            std::vector<std::string> h = {"VDD"};
            for (const auto& d :
                 sram::comparison_designs(0.8, standard_models()))
                h.push_back(d.name);
            return h;
        }());

        for (double vdd : vdd_sweep()) {
            std::vector<std::string> row = {format_sci(vdd, 1)};
            for (const auto& design :
                 sram::comparison_designs(vdd, standard_models())) {
                sram::SramCell cell = sram::build_cell(design.config);
                const double delay =
                    std::string(which) == "write"
                        ? sram::write_delay(cell, design.write_assist, opts)
                        : sram::read_delay(cell, design.read_assist, opts);
                row.push_back(core::format_pulse(delay));
                if (std::string(which) == "write")
                    csv.write_row({format_sci(vdd, 2), design.name,
                                   format_sci(delay, 6), ""});
                else
                    csv.write_row({format_sci(vdd, 2), design.name, "",
                                   format_sci(delay, 6)});
            }
            table.add_row(row);
        }
        std::cout << "-- " << which << " delay --\n" << table.render() << '\n';
    }

    expectation(
        "write: CMOS is fastest over most of the range (bidirectional "
        "access); among the TFET designs the proposed cell wins (sized for "
        "write). read: the proposed cell with its RA is best at low VDD; "
        "CMOS takes over at the top of the range; delays fall steeply with "
        "VDD for every design.");
    return 0;
}

} // namespace tfetsram::bench
