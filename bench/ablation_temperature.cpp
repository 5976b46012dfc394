// Ablation beyond the paper: temperature. The paper's static-power claims
// are quoted at room temperature; this sweep shows they strengthen with
// temperature, because band-to-band tunneling is nearly athermal while
// MOSFET subthreshold leakage rides kT/q.

#include <cmath>

#include "figures.hpp"
#include "device/table_builder.hpp"

namespace tfetsram::bench {

namespace {

device::ModelSet models_at(double temperature) {
    device::TfetParams tp;
    tp.temperature = temperature;
    device::MosfetParams nmos;
    nmos.temperature = temperature;
    device::MosfetParams pmos = device::pmos_defaults();
    pmos.temperature = temperature;
    device::ModelSet set;
    set.ntfet = device::build_table(*device::make_ntfet(tp));
    set.ptfet = device::build_table(*device::make_ptfet(tp));
    set.nmos = device::make_nmos(nmos);
    set.pmos = device::make_pmos(pmos);
    return set;
}

} // namespace

int run_ablation_temperature(const runner::RunnerConfig& config) {
    banner("Ablation", "temperature sweep (the athermal-tunneling edge)");
    const sram::MetricOptions opts;

    auto csv = open_csv("ablation_temperature", config);
    csv.write_row(std::vector<std::string>{
        "temperature", "tfet_swing_mv", "mos_swing_mv", "p_tfet", "p_cmos",
        "orders"});

    TablePrinter table({"T [K]", "TFET swing", "MOSFET swing",
                        "P(proposed)", "P(CMOS)", "gap"});
    for (double temp : {250.0, 300.0, 350.0, 400.0}) {
        device::TfetParams tp;
        tp.temperature = temp;
        const device::TfetModel tfet(tp);
        device::MosfetParams mp;
        mp.temperature = temp;
        const device::MosfetModel mos(mp);
        const double sw_t =
            0.1 / std::log10(tfet.iv(0.15, 0.8).ids / tfet.iv(0.05, 0.8).ids) *
            1e3;
        const double sw_m =
            0.1 / std::log10(mos.iv(0.20, 0.8).ids / mos.iv(0.10, 0.8).ids) *
            1e3;

        const device::ModelSet set = models_at(temp);
        sram::SramCell prop =
            sram::build_cell(sram::proposed_design(0.8, set).config);
        sram::SramCell cmos =
            sram::build_cell(sram::cmos_design(0.8, set).config);
        const double p_prop = sram::worst_hold_static_power(prop, opts);
        const double p_cmos = sram::worst_hold_static_power(cmos, opts);
        const double orders = std::log10(p_cmos / p_prop);

        table.add_row({format_sci(temp, 0), format_si(sw_t * 1e-3, "V/dec"),
                       format_si(sw_m * 1e-3, "V/dec"),
                       core::format_power(p_prop), core::format_power(p_cmos),
                       "10^" + format_sci(orders, 2)});
        csv.write_row({temp, sw_t, sw_m, p_prop, p_cmos, orders});
    }
    std::cout << table.render();

    expectation(
        "MOSFET swing and leakage scale with kT/q (the 6-order static-power "
        "gap widens by roughly two more orders from 300 K to 400 K); the "
        "TFET's tunneling swing is nearly flat in temperature.");
    return 0;
}

} // namespace tfetsram::bench
