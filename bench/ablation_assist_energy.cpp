// Ablation beyond the paper: the dynamic-energy price of each assist.
// Sec. 4.3 concedes "dynamic power overhead to generate lowered [GND]"
// without numbers; this bench measures the per-operation energy of every
// WA (during a write at beta = 2) and RA (during a read at beta = 0.6)
// against the unassisted operation, plus the data-retention floor.

#include <cmath>

#include "figures.hpp"

namespace tfetsram::bench {

int run_ablation_assist_energy(const runner::RunnerConfig& config) {
    banner("Ablation", "per-operation energy of the assists");
    const sram::MetricOptions opts;

    auto csv = open_csv("ablation_assist_energy", config);
    csv.write_row(std::vector<std::string>{"operation", "technique",
                                           "energy_J", "overhead_percent"});

    {
        TablePrinter table({"write assist (beta=2)", "energy / write",
                            "overhead"});
        sram::CellConfig cfg;
        cfg.kind = sram::CellKind::kTfet6T;
        cfg.access = sram::AccessDevice::kInwardP;
        cfg.beta = 2.0;
        cfg.models = standard_models();
        sram::SramCell base = sram::build_cell(cfg);
        const double e0 = sram::write_energy(base, 400e-12, sram::Assist::kNone);
        table.add_row({"none (write fails)", format_si(e0, "J"), "-"});
        csv.write_row({"write", "none", format_sci(e0, 6), "0"});
        for (sram::Assist a : sram::kWriteAssists) {
            sram::SramCell cell = sram::build_cell(cfg);
            const double e = sram::write_energy(cell, 400e-12, a, opts);
            const double pct = (e / e0 - 1.0) * 100.0;
            table.add_row({sram::to_string(a), format_si(e, "J"),
                           format_sci(pct, 2) + " %"});
            csv.write_row({"write", sram::to_string(a), format_sci(e, 6),
                           format_sci(pct, 4)});
        }
        std::cout << table.render() << '\n';
    }

    {
        TablePrinter table({"read assist (beta=0.6)", "energy / read",
                            "overhead"});
        sram::CellConfig cfg = sram::proposed_design(
            0.8, standard_models()).config;
        sram::SramCell base = sram::build_cell(cfg);
        const double e0 = sram::read_energy(base, sram::Assist::kNone, opts);
        table.add_row({"none (read flips)", format_si(e0, "J"), "-"});
        csv.write_row({"read", "none", format_sci(e0, 6), "0"});
        for (sram::Assist a : sram::kReadAssists) {
            sram::SramCell cell = sram::build_cell(cfg);
            const double e = sram::read_energy(cell, a, opts);
            const double pct = (e / e0 - 1.0) * 100.0;
            table.add_row({sram::to_string(a), format_si(e, "J"),
                           format_sci(pct, 2) + " %"});
            csv.write_row({"read", sram::to_string(a), format_sci(e, 6),
                           format_sci(pct, 4)});
        }
        std::cout << table.render() << '\n';
    }

    {
        TablePrinter table({"design", "data-retention voltage"});
        for (const auto& d :
             sram::comparison_designs(0.8, standard_models())) {
            if (d.config.kind == sram::CellKind::kTfet7T)
                continue; // same core as the proposed cell
            const double drv = sram::data_retention_voltage(d.config);
            table.add_row({d.name, core::format_margin(drv)});
            csv.write_row({"drv", d.name, format_sci(drv, 4), ""});
        }
        std::cout << table.render();
    }

    expectation(
        "assists cost tens of percent of extra energy per access — the "
        "overhead the paper concedes qualitatively; GND lowering's price "
        "buys the read margin that makes the beta = 0.6 design viable. "
        "Retention voltages sit far below the 0.5-0.9 V operating range.");
    return 0;
}

} // namespace tfetsram::bench
