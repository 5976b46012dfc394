// Fig. 9 reproduction: Monte-Carlo behaviour of the write-assist
// techniques under +/-5 % gate-insulator-thickness variation, cell sized
// at beta = 2 (the paper's WA study point). Prints the WLcrit occurrence
// histograms (a-c), write-failure counts (wordline lowering fails outright
// in the paper), and the near-invariant DRNM (d).

#include <cmath>

#include "figures.hpp"

namespace tfetsram::bench {

int run_fig9_mc_write_assist(const runner::RunnerConfig& config) {
    // Explicit simulation context for the whole figure, built from the
    // runner config's env snapshot (solver mode, seed root, deadline);
    // every Monte-Carlo batch below is attributed to it.
    const spice::SimContext ctx(config.sim);
    const std::size_t samples = mc::mc_samples_from_env(60);
    banner("Fig. 9", "process variation vs write assists (beta = 2, " +
                         std::to_string(samples) + " samples)");
    const sram::MetricOptions opts;

    sram::CellConfig cfg;
    cfg.kind = sram::CellKind::kTfet6T;
    cfg.access = sram::AccessDevice::kInwardP;
    cfg.beta = 2.0;
    cfg.models = standard_models();

    mc::VariationSpec vspec;
    const mc::TfetVariationSampler sampler(vspec);

    auto csv = open_csv("fig9_mc_write_assist", config);
    csv.write_row(std::vector<std::string>{"technique", "sample", "wlcrit"});

    TablePrinter summary({"technique", "mean", "stddev", "min", "max",
                          "write failures"});
    for (sram::Assist a : sram::kWriteAssists) {
        const mc::McResult res = mc::run_monte_carlo(
            ctx, cfg, sampler, samples, 0xF19u,
            [&](sram::SramCell& cell) {
                return sram::critical_wordline_pulse(cell, a, opts);
            });
        for (std::size_t i = 0; i < res.samples.size(); ++i)
            csv.write_row({sram::to_string(a), std::to_string(i),
                           format_sci(res.samples[i], 6)});

        summary.add_row({sram::to_string(a),
                         core::format_pulse(res.summary.mean),
                         core::format_pulse(res.summary.stddev),
                         core::format_pulse(res.summary.min),
                         core::format_pulse(res.summary.max),
                         std::to_string(res.summary.n_infinite)});

        std::cout << "-- WLcrit occurrences, " << sram::to_string(a) << " --\n"
                  << res.histogram(12).render() << '\n';
    }
    std::cout << summary.render() << '\n';

    // Fig. 9(d): DRNM under the same variation, cell sized for WA use.
    const mc::McResult drnm = mc::run_monte_carlo(
        ctx, cfg, sampler, samples, 0xF19u,
        [&](sram::SramCell& cell) {
            const auto d = sram::dynamic_read_noise_margin(
                cell, sram::Assist::kNone, opts);
            return d.valid ? d.drnm : std::nan("");
        });
    std::cout << "-- DRNM occurrences (no assist needed at beta = 2) --\n"
              << drnm.histogram(12).render();
    std::cout << "DRNM spread: mean " << core::format_margin(drnm.summary.mean)
              << ", stddev " << core::format_margin(drnm.summary.stddev)
              << " (cv = "
              << format_sci(drnm.summary.stddev / drnm.summary.mean, 2)
              << ")\n";

    expectation(
        "WLcrit varies greatly under tox variation for every WA technique "
        "(the paper even sees write failures for wordline lowering), while "
        "DRNM is hardly influenced.");
    return 0;
}

} // namespace tfetsram::bench
