// Fig. 4 reproduction: DRNM (a) and WLcrit (b) versus cell ratio beta for
// the 6T TFET SRAM with inward nTFET and inward pTFET access, against the
// 32 nm 6T CMOS SRAM.

#include <cmath>

#include "figures.hpp"

namespace tfetsram::bench {

namespace {

sram::SramCell make(sram::CellKind kind, sram::AccessDevice access,
                    double beta) {
    sram::CellConfig cfg;
    cfg.kind = kind;
    cfg.access = access;
    cfg.beta = beta;
    cfg.models = standard_models();
    return sram::build_cell(cfg);
}

} // namespace

int run_fig4_cell_stability(const runner::RunnerConfig& config) {
    banner("Fig. 4", "DRNM and WLcrit vs cell ratio beta (VDD = 0.8 V)");
    const sram::MetricOptions opts;
    const std::vector<double> betas = {0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 2.5, 3.0};

    TablePrinter table({"beta", "DRNM in-p", "DRNM in-n", "DRNM CMOS",
                        "WLcrit in-p", "WLcrit in-n", "WLcrit CMOS"});
    auto csv = open_csv("fig4_cell_stability", config);
    csv.write_row(std::vector<std::string>{
        "beta", "drnm_inp", "drnm_inn", "drnm_cmos", "wlcrit_inp",
        "wlcrit_inn", "wlcrit_cmos"});

    for (double beta : betas) {
        sram::SramCell inp = make(sram::CellKind::kTfet6T,
                                  sram::AccessDevice::kInwardP, beta);
        sram::SramCell inn = make(sram::CellKind::kTfet6T,
                                  sram::AccessDevice::kInwardN, beta);
        sram::SramCell cmos =
            make(sram::CellKind::kCmos6T, sram::AccessDevice::kCmos, beta);

        const auto d_inp =
            sram::dynamic_read_noise_margin(inp, sram::Assist::kNone, opts);
        const auto d_inn =
            sram::dynamic_read_noise_margin(inn, sram::Assist::kNone, opts);
        const auto d_cmos =
            sram::dynamic_read_noise_margin(cmos, sram::Assist::kNone, opts);
        const double w_inp =
            sram::critical_wordline_pulse(inp, sram::Assist::kNone, opts);
        const double w_inn =
            sram::critical_wordline_pulse(inn, sram::Assist::kNone, opts);
        const double w_cmos =
            sram::critical_wordline_pulse(cmos, sram::Assist::kNone, opts);

        table.add_row({format_sci(beta, 1), core::format_margin(d_inp.drnm),
                       core::format_margin(d_inn.drnm),
                       core::format_margin(d_cmos.drnm),
                       core::format_pulse(w_inp), core::format_pulse(w_inn),
                       core::format_pulse(w_cmos)});
        csv.write_row({beta, d_inp.drnm, d_inn.drnm, d_cmos.drnm, w_inp,
                       w_inn, w_cmos});
    }
    std::cout << table.render();

    expectation(
        "WLcrit: infinite for inward nTFET at every beta and for inward "
        "pTFET beyond beta ~ 1; grows steeply with beta for inward pTFET; "
        "CMOS stays small and nearly flat. DRNM: grows with beta; CMOS "
        "clearly better at small beta where the pTFET access overpowers the "
        "pull-down.");
    return 0;
}

} // namespace tfetsram::bench
