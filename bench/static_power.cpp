// Hold static power, the paper's two tables of it:
// - Sec. 3: the 6T TFET SRAM for all four access-device choices at
//   VDD = 0.6 V and 0.8 V, against the 32 nm CMOS baseline. Reproduces the
//   "5 and 9 orders of magnitude" outward penalty and the "6-7 orders below
//   CMOS" headline.
// - Sec. 5: hold power versus VDD for the four compared designs.
//   Reproduces "proposed == 7T, asymmetric 6T at least 4 orders higher (at
//   0.5 V), CMOS 6-7 orders higher".

#include <cmath>

#include "figures.hpp"

namespace tfetsram::bench {

namespace {

/// Worst-case hold power of each design at `vdd`, in order, writing one
/// (vdd, name, watts) CSV row per design.
std::vector<double> hold_powers(CsvWriter& csv, double vdd,
                                const std::vector<sram::DesignSpec>& designs) {
    const sram::MetricOptions opts;
    std::vector<double> powers;
    for (const sram::DesignSpec& design : designs) {
        sram::SramCell cell = sram::build_cell(design.config);
        const double p = sram::worst_hold_static_power(cell, opts);
        csv.write_row({format_sci(vdd, 2), design.name, format_sci(p, 6)});
        powers.push_back(p);
    }
    return powers;
}

} // namespace

int run_sec3_static_power(const runner::RunnerConfig& config) {
    banner("Sec. 3", "hold static power by access-device choice");
    const device::ModelSet& models = standard_models();

    auto csv = open_csv("sec3_static_power", config);
    csv.write_row(std::vector<std::string>{"vdd", "config", "watts"});

    for (double vdd : {0.6, 0.8}) {
        TablePrinter table({"cell (VDD=" + format_sci(vdd, 1) + ")",
                            "static power", "vs inward pTFET"});
        std::vector<sram::DesignSpec> designs;
        for (auto access :
             {sram::AccessDevice::kInwardP, sram::AccessDevice::kInwardN,
              sram::AccessDevice::kOutwardP, sram::AccessDevice::kOutwardN}) {
            sram::DesignSpec& d = designs.emplace_back();
            d.name = sram::to_string(access);
            d.config.kind = sram::CellKind::kTfet6T;
            d.config.access = access;
            d.config.vdd = vdd;
            d.config.models = models;
        }
        designs.push_back(sram::cmos_design(vdd, models));
        designs.back().name = "6T CMOS (32nm)";

        const std::vector<double> powers = hold_powers(csv, vdd, designs);
        const double p_inward_p = powers.front();
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const double orders = std::log10(powers[i] / p_inward_p);
            table.add_row({designs[i].name, core::format_power(powers[i]),
                           "10^" + format_sci(orders, 1)});
        }
        std::cout << table.render() << '\n';
    }

    expectation(
        "outward access leaks ~5 orders more at 0.6 V and ~9 orders more at "
        "0.8 V (reverse-biased p-i-n path); CMOS sits 6-7 orders above the "
        "inward TFET cells.");
    return 0;
}

int run_sec5_static_power(const runner::RunnerConfig& config) {
    banner("Sec. 5 (static power)", "hold static power vs VDD");

    auto csv = open_csv("sec5_static_power", config);
    csv.write_row(std::vector<std::string>{"vdd", "design", "watts"});

    TablePrinter table([&] {
        std::vector<std::string> h = {"VDD"};
        for (const auto& d : sram::comparison_designs(0.8, standard_models()))
            h.push_back(d.name);
        return h;
    }());

    double p_prop_05 = 0.0;
    double p_asym_05 = 0.0;
    double p_prop_08 = 0.0;
    double p_cmos_08 = 0.0;
    for (double vdd : vdd_sweep()) {
        const std::vector<sram::DesignSpec> designs =
            sram::comparison_designs(vdd, standard_models());
        const std::vector<double> powers = hold_powers(csv, vdd, designs);
        std::vector<std::string> row = {format_sci(vdd, 1)};
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const sram::CellKind kind = designs[i].config.kind;
            const double p = powers[i];
            row.push_back(core::format_power(p));
            if (vdd == 0.5 && kind == sram::CellKind::kTfet6T)
                p_prop_05 = p;
            if (vdd == 0.5 && kind == sram::CellKind::kTfetAsym6T)
                p_asym_05 = p;
            if (vdd == 0.8 && kind == sram::CellKind::kTfet6T)
                p_prop_08 = p;
            if (vdd == 0.8 && kind == sram::CellKind::kCmos6T)
                p_cmos_08 = p;
        }
        table.add_row(row);
    }
    std::cout << table.render();

    std::cout << "\nasymmetric 6T vs proposed at 0.5 V: 10^"
              << format_sci(std::log10(p_asym_05 / p_prop_05), 2)
              << "  (paper: ~4 orders)\n"
              << "CMOS vs proposed at 0.8 V:        10^"
              << format_sci(std::log10(p_cmos_08 / p_prop_08), 2)
              << "  (paper: 6-7 orders)\n";

    expectation(
        "proposed 6T inpTFET and 7T consume the same attowatt-level static "
        "power; the asymmetric 6T pays ~4 orders (outward access under "
        "reverse bias unless its bitlines float); CMOS sits 6-7 orders "
        "above the proposed design.");
    return 0;
}

} // namespace tfetsram::bench
