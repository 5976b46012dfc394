// Fig. 7(e) reproduction: DRNM versus beta for the four read-assist
// techniques (all at 30 % of VDD), on the inward-pTFET 6T cell.

#include "figures.hpp"

namespace tfetsram::bench {

int run_fig7_read_assist(const runner::RunnerConfig& config) {
    banner("Fig. 7(e)",
           "read-assist effectiveness: DRNM vs beta (VDD = 0.8 V)");
    const sram::MetricOptions opts;
    const std::vector<double> betas = {0.3, 0.4, 0.6, 0.8, 1.0};

    TablePrinter table([&] {
        std::vector<std::string> h = {"beta", "no assist"};
        for (sram::Assist a : sram::kReadAssists)
            h.push_back(sram::to_string(a));
        return h;
    }());
    auto csv = open_csv("fig7_read_assist", config);
    csv.write_row(std::vector<std::string>{"beta", "none", "vdd_raising",
                                           "gnd_lowering", "wl_raising",
                                           "bl_lowering"});

    for (double beta : betas) {
        std::vector<std::string> row = {format_sci(beta, 1)};
        std::vector<double> vals = {beta};
        auto eval = [&](sram::Assist a) {
            sram::CellConfig cfg;
            cfg.kind = sram::CellKind::kTfet6T;
            cfg.access = sram::AccessDevice::kInwardP;
            cfg.beta = beta;
            cfg.models = standard_models();
            sram::SramCell cell = sram::build_cell(cfg);
            const auto d = sram::dynamic_read_noise_margin(cell, a, opts);
            row.push_back(d.flipped ? "flip"
                                    : core::format_margin(d.drnm));
            vals.push_back(d.flipped ? 0.0 : d.drnm);
        };
        eval(sram::Assist::kNone);
        for (sram::Assist a : sram::kReadAssists)
            eval(a);
        table.add_row(row);
        csv.write_row(vals);
    }
    std::cout << table.render();

    expectation(
        "every technique lifts the unassisted margin; the rail assists "
        "(GND lowering, VDD raising) dominate at moderate-to-large beta "
        "while the access-weakening assists (wordline raising, bitline "
        "lowering) are relatively strongest at the smallest beta. GND "
        "lowering — the paper's chosen technique — is best or near-best "
        "everywhere.");
    return 0;
}

} // namespace tfetsram::bench
