// Cell-zoo multi-corner sweep: every registered design (sram::cell_zoo())
// evaluated across a (VDD x temperature x Tox) corner grid on its own
// model-set flavor. One cacheable task per (cell, corner) point; the
// "bench:" metrics land in BENCH_cell_zoo.json per task, giving the
// per-cell x per-corner table the zoo CI job checks.
//
// Grid selection: TFETSRAM_ZOO_CORNERS=smoke|default|full (default:
// "default"). smoke is the single nominal corner CI uses.

#include "figures.hpp"

#include <cmath>
#include <map>

#include "device/model_zoo.hpp"
#include "runner/sweep.hpp"
#include "spice/solve_error.hpp"
#include "sram/cell_zoo.hpp"
#include "util/env.hpp"

namespace tfetsram::bench {

namespace {

runner::CornerAxes zoo_axes(const std::string& grid) {
    runner::CornerAxes axes;
    if (grid == "smoke") {
        axes.vdd = {0.8};
        axes.temperature = {300.0};
        axes.tox_scale = {1.0};
    } else if (grid == "full") {
        axes.vdd = {0.5, 0.7, 0.9};
        axes.temperature = {300.0, 400.0};
        axes.tox_scale = {0.95, 1.0, 1.05};
    } else {
        axes.vdd = {0.6, 0.8};
        axes.temperature = {300.0, 350.0};
        axes.tox_scale = {1.0};
    }
    return axes;
}

} // namespace

int run_cell_zoo(const runner::RunnerConfig& config) {
    runner::RunnerConfig cfg = config;
    cfg.run_name = "cell_zoo";
    const std::string grid =
        env::get_string("TFETSRAM_ZOO_CORNERS", "default");
    const std::vector<runner::Corner> corners =
        runner::make_corner_grid(zoo_axes(grid));
    banner("Cell zoo", "per-cell x per-corner sweep (" + grid + " grid, " +
                           std::to_string(corners.size()) + " corners, " +
                           std::to_string(sram::cell_zoo().size()) +
                           " cells)");
    const sram::MetricOptions opts;

    // Model sets are shared across cells and corners: build each needed
    // (flavor, temperature, tox) combination once, up front, so the sweep
    // tasks never race on table extraction.
    std::map<std::string, device::ModelSet> model_cache;
    auto models_for = [&](const std::string& set_name,
                          const runner::Corner& c) -> const device::ModelSet& {
        const std::string key = set_name + "@" + c.tag();
        auto it = model_cache.find(key);
        if (it == model_cache.end())
            it = model_cache
                     .emplace(key, device::make_model_set_at(
                                       device::find_model_set(set_name),
                                       c.temperature, c.tox_scale))
                     .first;
        return it->second;
    };
    for (const sram::ZooEntry& entry : sram::cell_zoo())
        for (const runner::Corner& c : corners)
            models_for(entry.model_set, c);

    runner::Runner r(cfg);
    // task ids laid out as points[entry_index][corner_index]
    std::vector<std::vector<runner::TaskId>> points;
    for (const sram::ZooEntry& entry : sram::cell_zoo()) {
        auto& row = points.emplace_back();
        for (const runner::Corner& c : corners) {
            const device::ModelSetSpec& ms =
                device::find_model_set(entry.model_set);
            runner::TaskSpec spec;
            spec.id = "zoo " + entry.id + " " + c.tag();
            runner::CacheKey key("cell_zoo");
            key.add("model", ms.version).add("cell", entry.id);
            c.add_to(key);
            spec.key = std::move(key);
            const device::ModelSet* models = &models_for(entry.model_set, c);
            spec.fn = [&entry, c, models, opts] {
                const sram::DesignSpec design =
                    sram::make_zoo_design(entry, c.vdd, *models);
                sram::SramCell cell = sram::build_cell(design.config);

                runner::TaskResult result;
                if (design.wlcrit_defined) {
                    const double wl = sram::critical_wordline_pulse(
                        cell, design.write_assist, opts);
                    // NaN is the "simulation failed" sentinel (+inf is a
                    // legit write failure): surface it as a solver error so
                    // the runner can retry or quarantine the point.
                    if (std::isnan(wl)) {
                        spice::SolveError err;
                        err.code = spice::SolveErrorCode::kNonConvergence;
                        err.message = "zoo wlcrit: simulation failed";
                        throw spice::SolveException(std::move(err));
                    }
                    result.set("wlcrit", core::format_pulse(wl));
                    result.set("bench:wlcrit", format_sci(wl, 8));
                } else {
                    result.set("wlcrit", "n/a");
                    result.set("bench:wlcrit", "nan");
                }
                const sram::DrnmResult d = sram::dynamic_read_noise_margin(
                    cell, design.read_assist, opts);
                const double drnm = d.valid && !d.flipped ? d.drnm : 0.0;
                result.set("drnm", core::format_margin(drnm));
                result.set("bench:drnm", format_sci(drnm, 8));
                const double p = sram::worst_hold_static_power(cell, opts);
                result.set("p_hold", core::format_power(p));
                result.set("bench:p_hold", format_sci(p, 8));
                return result;
            };
            row.push_back(r.add(std::move(spec)));
        }
    }
    r.run();

    TablePrinter table({"cell", "model set", "VDD", "T [K]", "Tox", "WLcrit",
                        "DRNM", "P_hold"});
    auto csv = open_csv("cell_zoo", cfg);
    csv.write_row(std::vector<std::string>{"cell", "model_set", "vdd",
                                           "temperature", "tox_scale",
                                           "wlcrit", "drnm", "p_hold"});
    for (std::size_t e = 0; e < sram::cell_zoo().size(); ++e) {
        const sram::ZooEntry& entry = sram::cell_zoo()[e];
        for (std::size_t ci = 0; ci < corners.size(); ++ci) {
            const runner::Corner& c = corners[ci];
            const runner::TaskId id = points[e][ci];
            table.add_row({entry.id, entry.model_set, format_sci(c.vdd, 1),
                           format_sci(c.temperature, 0),
                           "x" + format_sci(c.tox_scale, 2),
                           value_or(r, id, "wlcrit", "QUARANTINED"),
                           value_or(r, id, "drnm", "QUARANTINED"),
                           value_or(r, id, "p_hold", "QUARANTINED")});
            csv.write_row(std::vector<std::string>{
                entry.id, entry.model_set, format_sci(c.vdd, 8),
                format_sci(c.temperature, 8), format_sci(c.tox_scale, 8),
                value_or(r, id, "bench:wlcrit", "nan"),
                value_or(r, id, "bench:drnm", "nan"),
                value_or(r, id, "bench:p_hold", "nan")});
        }
    }
    std::cout << table.render();

    expectation(
        "the read-port cells (7T/8T/9T) decouple read stability from the "
        "storage nodes, so their DRNM stays high at every corner while the "
        "differential 6T cells trade margin against VDD; the CNTFET flavor "
        "buys write speed (higher drive) at a static-power penalty from its "
        "raised off-current.");
    return 0;
}

} // namespace tfetsram::bench
