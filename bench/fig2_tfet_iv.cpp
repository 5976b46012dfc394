// Fig. 2 reproduction: (a) forward I-V of the calibrated nTFET and pTFET
// (VGS swept at several VDS), (b) the nTFET under reverse bias, where the
// p-i-n path erodes gate control as |VDS| grows — the "unidirectional
// conduction" at the heart of the paper.

#include <cmath>

#include "figures.hpp"
#include "device/models.hpp"

namespace tfetsram::bench {

namespace {

std::string log10_str(double amps) {
    return format_sci(amps, 2);
}

void forward_iv(const runner::RunnerConfig& config) {
    banner("Fig. 2(a)", "TFET forward I-V (A/um)");
    const auto ntfet = device::make_ntfet();
    const auto ptfet = device::make_ptfet();

    const std::vector<double> vds_list = {0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
    TablePrinter table([&] {
        std::vector<std::string> h = {"VGS"};
        for (double vds : vds_list)
            h.push_back("nTFET VDS=" + format_sci(vds, 1));
        h.push_back("pTFET VDS=-1");
        return h;
    }());

    auto csv = open_csv("fig2a_forward_iv", config);
    csv.write_row(std::vector<std::string>{"vgs", "vds", "ids_n", "ids_p"});
    for (double vgs = 0.0; vgs <= 1.0 + 1e-9; vgs += 0.1) {
        std::vector<std::string> row = {format_sci(vgs, 1)};
        for (double vds : vds_list) {
            row.push_back(log10_str(ntfet->iv(vgs, vds).ids));
            csv.write_row({vgs, vds, ntfet->iv(vgs, vds).ids,
                           ptfet->iv(-vgs, -vds).ids});
        }
        row.push_back(log10_str(-ptfet->iv(-vgs, -1.0).ids));
        table.add_row(row);
    }
    std::cout << table.render();

    const double ion = ntfet->iv(1.0, 1.0).ids;
    const double ioff = ntfet->iv(0.0, 1.0).ids;
    std::cout << "\nIon  = " << format_sci(ion, 2) << " A/um (paper: 1e-4)"
              << "\nIoff = " << format_sci(ioff, 2) << " A/um (paper: 1e-17)"
              << "\non/off = 10^" << std::log10(ion / ioff) << " (paper: 13 decades)\n";
    expectation(
        "steep swing near threshold flattening at high VGS; pTFET is the "
        "exact mirror of the nTFET.");
}

void reverse_iv(const runner::RunnerConfig& config) {
    banner("Fig. 2(b)", "nTFET reverse-bias I-V (A/um, source/drain swapped)");
    const auto ntfet = device::make_ntfet();

    const std::vector<double> vds_list = {-0.1, -0.2, -0.4, -0.6, -0.8, -1.0};
    TablePrinter table([&] {
        std::vector<std::string> h = {"VGS"};
        for (double vds : vds_list)
            h.push_back("VDS=" + format_sci(vds, 1));
        return h;
    }());

    auto csv = open_csv("fig2b_reverse_iv", config);
    csv.write_row(std::vector<std::string>{"vgs", "vds", "ids"});
    for (double vgs = 0.0; vgs <= 1.0 + 1e-9; vgs += 0.2) {
        std::vector<std::string> row = {format_sci(vgs, 1)};
        for (double vds : vds_list) {
            const double i = -ntfet->iv(vgs, vds).ids;
            row.push_back(log10_str(i));
            csv.write_row({vgs, vds, i});
        }
        table.add_row(row);
    }
    std::cout << table.render();

    const double ctrl_low = -ntfet->iv(1.0, -0.1).ids / -ntfet->iv(0.0, -0.1).ids;
    const double ctrl_high = -ntfet->iv(1.0, -1.0).ids / -ntfet->iv(0.0, -1.0).ids;
    std::cout << "\ngate control (Ion/Ioff): 10^" << std::log10(ctrl_low)
              << " at VDS=-0.1 vs 10^" << std::log10(ctrl_high)
              << " at VDS=-1.0\n";
    expectation(
        "(i) the gate loses control over the channel at high |VDS| (p-i-n "
        "floor); (ii) reverse on-current is well below the forward "
        "on-current except for VDS close to 1 V or 0 V.");
}

} // namespace

int run_fig2_tfet_iv(const runner::RunnerConfig& config) {
    forward_iv(config);
    reverse_iv(config);
    return 0;
}

} // namespace tfetsram::bench
