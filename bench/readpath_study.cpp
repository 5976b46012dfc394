// Read-path study (extension): the proposed cell read through real
// transistor periphery — precharge network, latch sense amplifier — with
// the sense-enable timing swept to find the minimum safe sensing delay
// and the bitline differential available at each candidate fire time.

#include <cmath>

#include "figures.hpp"
#include "sram/operations.hpp"
#include "sram/periphery.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"

namespace tfetsram::bench {

namespace {

struct Path {
    spice::Circuit ckt;
    spice::NodeId vdd = 0;
    spice::NodeId bl = 0;
    spice::NodeId blb = 0;
    spice::NodeId q = 0;
    spice::NodeId qb = 0;
    spice::VoltageSource* v_vss = nullptr;
    spice::VoltageSource* v_wl = nullptr;
    sram::Precharge pre;
    sram::SenseAmp sa;
};

Path build_path(double vdd_level) {
    Path p;
    sram::CellConfig cc =
        sram::proposed_design(vdd_level, standard_models()).config;
    spice::Circuit& ckt = p.ckt;
    p.vdd = ckt.add_node("vdd");
    const auto vss = ckt.add_node("vss");
    p.bl = ckt.add_node("bl");
    p.blb = ckt.add_node("blb");
    const auto wl = ckt.add_node("wl");
    p.q = ckt.add_node("q");
    p.qb = ckt.add_node("qb");
    ckt.add_vsource("Vvdd", p.vdd, spice::kGround,
                    spice::Waveform::dc(vdd_level));
    p.v_vss = &ckt.add_vsource("Vvss", vss, spice::kGround,
                               spice::Waveform::dc(0.0));
    p.v_wl = &ckt.add_vsource("Vwl", wl, spice::kGround,
                              spice::Waveform::dc(vdd_level));
    ckt.add_capacitor("Cbl", p.bl, spice::kGround, 10e-15);
    ckt.add_capacitor("Cblb", p.blb, spice::kGround, 10e-15);
    sram::build_6t_devices(ckt, cc, {p.q, p.qb, p.bl, p.blb, wl, p.vdd, vss},
                           "");
    sram::PeripheryConfig pc;
    pc.vdd = vdd_level;
    pc.models = standard_models();
    // Adversarial 10 % latch mismatch: the offset fights the polarity the
    // read should resolve (q = 0 pulls BL low; the skew favours BLB low),
    // so the cell must develop a real differential before SAE fires.
    pc.w_sense_skew = -0.10;
    p.pre = sram::attach_precharge(ckt, "p_", p.bl, p.blb, p.vdd, pc);
    p.sa = sram::attach_sense_amp(ckt, "s_", p.bl, p.blb, p.vdd, pc);
    // State-initialization clamp: holding q at ground during the t = 0
    // operating point makes the bistable DC solution unique; the switch
    // opens at 20 ps, well before any signal moves.
    ckt.add_switch("Sinit", p.q, spice::kGround, 1e2, 1e12,
                   spice::Waveform::pwl({{20e-12, 1.0}, {25e-12, 0.0}}));
    ckt.prepare();
    return p;
}

struct Sense {
    bool ok = false;
    bool correct = false;
    double differential = 0.0; ///< at SAE fire time [V]
};

Sense run_once(double vdd_level, double sae_delay) {
    Path p = build_path(vdd_level);
    const double wl_on = 0.7e-9;
    const double t_sae = wl_on + sae_delay;
    // The latch regeneration current falls steeply with VDD (tunneling
    // kernel), so the settle window scales accordingly.
    const double t_end =
        t_sae + 0.6e-9 * std::pow(0.8 / vdd_level, 5.0);
    p.pre.v_pre->set_waveform(spice::Waveform::pwl(
        {{0.05e-9, vdd_level}, {0.06e-9, 0.0}, {0.55e-9, 0.0},
         {0.56e-9, vdd_level}}));
    p.v_vss->set_waveform(spice::Waveform::pwl(
        {{0.1e-9, 0.0}, {0.12e-9, -0.3 * vdd_level},
         {t_end - 0.1e-9, -0.3 * vdd_level}, {t_end - 0.08e-9, 0.0}}));
    p.v_wl->set_waveform(spice::Waveform::pwl(
        {{wl_on, vdd_level}, {wl_on + 5e-12, 0.0},
         {t_sae + 0.3e-9, 0.0}, {t_sae + 0.305e-9, vdd_level}}));
    p.sa.v_sae->set_waveform(
        spice::Waveform::pwl({{t_sae, 0.0}, {t_sae + 10e-12, vdd_level}}));

    la::Vector guess(p.ckt.num_unknowns(), 0.0);
    guess[p.vdd - 1] = vdd_level;
    guess[p.qb - 1] = vdd_level; // q = 0: BL side discharges
    guess[p.bl - 1] = vdd_level;
    guess[p.blb - 1] = vdd_level;
    const spice::TransientResult tr =
        spice::solve_transient(p.ckt, spice::ambient_context(), {}, t_end,
                               nullptr, &guess);
    Sense s;
    if (!tr.completed)
        return s;
    s.ok = true;
    s.differential =
        tr.voltage_at(p.blb, t_sae) - tr.voltage_at(p.bl, t_sae);
    // q = 0: BL must end low, BLB high, and the cell must survive.
    s.correct = tr.final_voltage(p.bl) < 0.1 * vdd_level &&
                tr.final_voltage(p.blb) > 0.9 * vdd_level &&
                tr.final_voltage(p.q) < tr.final_voltage(p.qb);
    return s;
}

} // namespace

int run_readpath_study(const runner::RunnerConfig& config) {
    banner("Read-path study", "sense-enable timing with transistor periphery");
    auto csv = open_csv("readpath_study", config);
    csv.write_row(std::vector<std::string>{"vdd", "sae_delay", "differential",
                                           "correct"});

    for (double vdd : {0.6, 0.8}) {
        TablePrinter table({"SAE delay after WL", "differential at fire",
                            "sensed correctly"});
        double min_safe = -1.0;
        for (double delay : {10e-12, 20e-12, 40e-12, 80e-12, 160e-12,
                             320e-12}) {
            const Sense s = run_once(vdd, delay);
            table.add_row({format_si(delay, "s"),
                           core::format_margin(s.differential),
                           !s.ok ? "sim fail" : (s.correct ? "yes" : "NO")});
            csv.write_row({format_sci(vdd, 2), format_sci(delay, 4),
                           format_sci(s.differential, 4),
                           s.correct ? "1" : "0"});
            if (s.ok && s.correct && min_safe < 0.0)
                min_safe = delay;
        }
        std::cout << "-- VDD = " << format_sci(vdd, 1) << " V --\n"
                  << table.render();
        if (min_safe > 0.0)
            std::cout << "minimum safe SAE delay: " << format_si(min_safe, "s")
                      << "\n\n";
    }

    expectation(
        "the differential grows with sensing delay; once it overcomes the "
        "latch's (adversarial 10 %) offset the read resolves correctly. "
        "The minimum safe sensing delay shrinks as VDD rises with the "
        "steeply growing cell current.");
    return 0;
}

} // namespace tfetsram::bench
