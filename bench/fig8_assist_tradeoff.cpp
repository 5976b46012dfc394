// Fig. 8 reproduction: the WLcrit-vs-DRNM tradeoff. For every WA and RA
// technique, sweep beta and report the (DRNM, WLcrit) operating points;
// the best design is the curve closest to the lower-right corner (large
// DRNM, small WLcrit). The paper concludes GND-lowering RA wins.

#include <cmath>

#include "figures.hpp"

namespace tfetsram::bench {

int run_fig8_assist_tradeoff(const runner::RunnerConfig& config) {
    banner("Fig. 8", "WLcrit vs DRNM tradeoff across all 8 techniques");
    const sram::MetricOptions opts;

    auto csv = open_csv("fig8_assist_tradeoff", config);
    csv.write_row(
        std::vector<std::string>{"technique", "beta", "drnm", "wlcrit"});

    struct Best {
        sram::Assist assist{};
        double beta = 0.0;
        double drnm = 0.0;
        double wlcrit = 0.0;
        double score = -1e300;
    };
    Best overall;

    auto sweep = [&](sram::Assist assist, const std::vector<double>& betas) {
        TablePrinter table({"beta", "DRNM", "WLcrit"});
        for (double beta : betas) {
            sram::CellConfig cfg;
            cfg.kind = sram::CellKind::kTfet6T;
            cfg.access = sram::AccessDevice::kInwardP;
            cfg.beta = beta;
            cfg.models = standard_models();
            sram::SramCell cell = sram::build_cell(cfg);

            const sram::Assist wa =
                sram::is_write_assist(assist) ? assist : sram::Assist::kNone;
            const sram::Assist ra =
                sram::is_read_assist(assist) ? assist : sram::Assist::kNone;
            const double wl = sram::critical_wordline_pulse(cell, wa, opts);
            const auto d = sram::dynamic_read_noise_margin(cell, ra, opts);
            const double drnm = d.flipped ? 0.0 : d.drnm;

            table.add_row({format_sci(beta, 1), core::format_margin(drnm),
                           core::format_pulse(wl)});
            csv.write_row({sram::to_string(assist), format_sci(beta, 2),
                           format_sci(drnm, 6), format_sci(wl, 6)});

            if (std::isfinite(wl) && drnm > 0.0) {
                const double score = drnm / 0.8 - wl / 1e-9;
                if (score > overall.score)
                    overall = {assist, beta, drnm, wl, score};
            }
        }
        std::cout << "-- " << sram::to_string(assist) << " --\n"
                  << table.render() << '\n';
    };

    // WA techniques need beta >= 1 so the read is safe; RA techniques need
    // beta <= 1 so the write is safe (Sec. 4).
    const std::vector<double> wa_betas = {1.0, 1.5, 2.0, 2.5, 3.0};
    const std::vector<double> ra_betas = {0.4, 0.6, 0.8, 1.0};
    for (sram::Assist a : sram::kWriteAssists)
        sweep(a, wa_betas);
    for (sram::Assist a : sram::kReadAssists)
        sweep(a, ra_betas);

    std::cout << "closest to the lower-right corner: "
              << sram::to_string(overall.assist) << " at beta = "
              << overall.beta << "  (DRNM " << core::format_margin(overall.drnm)
              << ", WLcrit " << core::format_pulse(overall.wlcrit) << ")\n";

    expectation(
        "the curve closest to the lower-right corner belongs to the "
        "GND-lowering read assist: size the cell for write (beta ~ 0.6) and "
        "assist the read.");
    return 0;
}

} // namespace tfetsram::bench
