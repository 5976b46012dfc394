#include "core/signoff.hpp"

#include <cmath>
#include <sstream>

#include "core/report.hpp"
#include "device/model_zoo.hpp"
#include "device/table_builder.hpp"
#include "sram/cell_zoo.hpp"
#include "sram/operations.hpp"
#include "util/table_printer.hpp"
#include "util/units.hpp"

namespace tfetsram::core {

namespace {

void check(std::vector<std::string>& failures, bool ok,
           const std::string& what) {
    if (!ok)
        failures.push_back(what);
}

/// Rebuild a model set at the given temperature and oxide-thickness scale
/// (TFETs tabulated, the CMOS baseline analytic — the standard flow).
device::ModelSet models_at(const device::TfetParams& base, double temperature,
                           double tox_scale = 1.0) {
    device::TfetParams tp = base;
    tp.temperature = temperature;
    tp.tox = base.tox * tox_scale;
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

SignoffReport signoff(const sram::DesignSpec& design,
                      const device::TfetParams& tfet_params,
                      const SignoffRequirements& req,
                      const SignoffConditions& cond) {
    // Every corner, static analysis, and MC batch below runs under this
    // one context: cond.sim, else the caller's ambient context.
    const spice::SimContext& ctx = spice::context_or_ambient(cond.sim);
    SignoffReport rep;
    rep.design_name = design.name;
    const sram::MetricOptions& mo = cond.metrics;

    // ---- Supply x Tox corners at nominal temperature ----
    const device::ModelSet nominal_models = models_at(tfet_params, 300.0);
    std::vector<double> tox_scales = cond.tox_scales;
    if (tox_scales.empty())
        tox_scales.push_back(1.0);
    std::vector<device::ModelSet> tox_models;
    for (double tox : tox_scales)
        tox_models.push_back(tox == 1.0 ? nominal_models
                                        : models_at(tfet_params, 300.0, tox));
    for (double vdd : cond.vdd_corners) {
      for (std::size_t ti = 0; ti < tox_scales.size(); ++ti) {
        const double tox = tox_scales[ti];
        sram::CellConfig cfg = design.config;
        cfg.vdd = vdd;
        cfg.models = tox_models[ti];
        sram::SramCell cell = sram::build_cell(cfg, &ctx);

        CornerRow row;
        row.vdd = vdd;
        row.tox_scale = tox;
        if (design.wlcrit_defined)
            row.wlcrit =
                sram::critical_wordline_pulse(cell, design.write_assist, mo);
        const auto d =
            sram::dynamic_read_noise_margin(cell, design.read_assist, mo);
        row.drnm = d.valid && !d.flipped ? d.drnm : 0.0;
        row.write_delay = sram::write_delay(cell, design.write_assist, mo);
        row.read_delay = sram::read_delay(cell, design.read_assist, mo);
        row.write_energy = sram::write_energy(
            cell, mo.write_probe_pulse, design.write_assist, mo);
        row.read_energy = sram::read_energy(cell, design.read_assist, mo);
        row.static_power = sram::worst_hold_static_power(cell, mo);
        rep.corners.push_back(row);

        std::string at = " @ " + format_sci(vdd, 1) + " V";
        if (tox != 1.0)
            at += ", Tox x" + format_sci(tox, 2);
        if (design.wlcrit_defined)
            check(rep.failures,
                  std::isfinite(row.wlcrit) && row.wlcrit <= req.max_wlcrit,
                  "WLcrit " + format_pulse(row.wlcrit) + at);
        check(rep.failures, row.drnm >= req.min_drnm,
              "DRNM " + format_margin(row.drnm) + at);
        check(rep.failures,
              !std::isnan(row.write_delay) &&
                  row.write_delay <= req.max_write_delay,
              "write delay " + format_pulse(row.write_delay) + at);
        check(rep.failures,
              !std::isnan(row.read_delay) &&
                  row.read_delay <= req.max_read_delay,
              "read delay " + format_pulse(row.read_delay) + at);
        check(rep.failures,
              std::isfinite(row.static_power) &&
                  row.static_power <= req.max_static_power,
              "static power " + format_power(row.static_power) + at);
      }
    }

    // ---- Temperature corners (hold integrity + leakage) ----
    for (double temp : cond.temperature_corners) {
        sram::CellConfig cfg = design.config;
        cfg.models = models_at(tfet_params, temp);
        sram::SramCell cell = sram::build_cell(cfg, &ctx);
        TemperatureRow row;
        row.temperature = temp;
        row.static_power = sram::worst_hold_static_power(cell, mo);
        sram::program_hold(cell);
        row.holds_data = sram::solve_hold_state(cell, true, mo.solver).state_ok &&
                         sram::solve_hold_state(cell, false, mo.solver).state_ok;
        rep.temperatures.push_back(row);
        check(rep.failures, row.holds_data,
              "hold failure at " + format_sci(temp, 0) + " K");
    }

    // ---- Static analyses at nominal ----
    {
        // SNM and DRV build their own cells, which run under the ambient
        // context.
        const spice::ScopedContext bind(ctx);
        sram::CellConfig cfg = design.config;
        cfg.models = nominal_models;
        const sram::SnmResult snm =
            sram::static_noise_margin(cfg, sram::SnmMode::kHold, 81, mo.solver);
        rep.hold_snm = snm.valid ? snm.snm : 0.0;
        check(rep.failures, rep.hold_snm >= req.min_hold_snm,
              "hold SNM " + format_margin(rep.hold_snm));
        rep.drv = sram::data_retention_voltage(cfg, 0.0, mo);
        check(rep.failures, !std::isnan(rep.drv) && rep.drv <= req.max_drv,
              "retention voltage " + format_margin(rep.drv));
    }

    // ---- Monte-Carlo margins at nominal ----
    if (cond.mc_samples > 0) {
        mc::VariationSpec vspec;
        vspec.base = tfet_params;
        const mc::TfetVariationSampler sampler(vspec);
        sram::CellConfig cfg = design.config;

        if (design.wlcrit_defined) {
            const mc::McResult wl = mc::run_monte_carlo(
                ctx, cfg, sampler, cond.mc_samples, cond.mc_seed,
                [&](sram::SramCell& cell) {
                    return sram::critical_wordline_pulse(
                        cell, design.write_assist, mo);
                });
            rep.mc_wlcrit = wl.summary;
            check(rep.failures,
                  wl.summary.n_infinite == 0 &&
                      wl.summary.max <= req.mc_max_wlcrit,
                  "MC WLcrit worst " + format_pulse(wl.summary.max) + " (" +
                      std::to_string(wl.summary.n_infinite) + " failures)");
        }
        const mc::McResult dr = mc::run_monte_carlo(
            ctx, cfg, sampler, cond.mc_samples, cond.mc_seed + 1,
            [&](sram::SramCell& cell) {
                const auto d = sram::dynamic_read_noise_margin(
                    cell, design.read_assist, mo);
                return d.valid && !d.flipped ? d.drnm : 0.0;
            });
        rep.mc_drnm = dr.summary;
        check(rep.failures, dr.summary.min >= req.mc_min_drnm,
              "MC DRNM worst " + format_margin(dr.summary.min));
    }
    return rep;
}

std::string SignoffReport::to_text() const {
    std::ostringstream os;
    os << "=== Sign-off: " << design_name << " ===\n\n";

    // The Tox column appears only when the sweep actually used the axis,
    // keeping the single-axis legacy rendering byte-stable.
    bool any_tox = false;
    for (const CornerRow& r : corners)
        any_tox = any_tox || r.tox_scale != 1.0;

    std::vector<std::string> headers = {"VDD",     "WLcrit",  "DRNM",
                                        "t_write", "t_read",  "E_write",
                                        "E_read",  "P_hold"};
    if (any_tox)
        headers.insert(headers.begin() + 1, "Tox");
    TablePrinter corners_t(headers);
    for (const CornerRow& r : corners) {
        std::vector<std::string> cells = {
            format_sci(r.vdd, 1),          format_pulse(r.wlcrit),
            format_margin(r.drnm),         format_pulse(r.write_delay),
            format_pulse(r.read_delay),    format_si(r.write_energy, "J"),
            format_si(r.read_energy, "J"), format_power(r.static_power)};
        if (any_tox)
            cells.insert(cells.begin() + 1, "x" + format_sci(r.tox_scale, 2));
        corners_t.add_row(cells);
    }
    os << corners_t.render() << '\n';

    TablePrinter temp_t({"T [K]", "P_hold", "holds data"});
    for (const TemperatureRow& r : temperatures)
        temp_t.add_row({format_sci(r.temperature, 0),
                        format_power(r.static_power),
                        r.holds_data ? "yes" : "NO"});
    os << temp_t.render() << '\n';

    os << "hold SNM: " << format_margin(hold_snm)
       << "   retention voltage: " << format_margin(drv) << "\n";
    if (mc_drnm.count > 0) {
        os << "MC (" << mc_drnm.count << " samples): WLcrit worst "
           << format_pulse(mc_wlcrit.max) << ", DRNM worst "
           << format_margin(mc_drnm.min) << "\n";
    }

    os << "\nverdict: " << (passed() ? "PASS" : "FAIL") << "\n";
    for (const std::string& f : failures)
        os << "  violation: " << f << "\n";
    return os.str();
}

std::vector<SignoffReport> signoff_zoo(double vdd,
                                       const SignoffRequirements& req,
                                       const SignoffConditions& cond) {
    std::vector<SignoffReport> reports;
    for (const sram::ZooEntry& entry : sram::cell_zoo()) {
        const device::ModelSetSpec& ms =
            device::find_model_set(entry.model_set);
        const device::ModelSet models = device::make_model_set_at(ms, 300.0);
        const sram::DesignSpec design =
            sram::make_zoo_design(entry, vdd, models);
        reports.push_back(signoff(design, ms.tfet, req, cond));
    }
    return reports;
}

} // namespace tfetsram::core
