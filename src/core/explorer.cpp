#include "core/explorer.hpp"

#include <algorithm>
#include <cmath>

#include "sram/cell_zoo.hpp"
#include "sram/operations.hpp"

namespace tfetsram::core {

namespace {

using sram::AccessDevice;
using sram::Assist;
using sram::CellConfig;
using sram::CellKind;

CellConfig tfet6t_config(const ExplorerOptions& opt,
                         const device::ModelSet& models, AccessDevice access,
                         double beta) {
    CellConfig cfg;
    cfg.kind = CellKind::kTfet6T;
    cfg.access = access;
    cfg.vdd = opt.vdd;
    cfg.beta = beta;
    cfg.models = models;
    return cfg;
}

AccessStudyRow study_access(const ExplorerOptions& opt,
                            const device::ModelSet& models,
                            AccessDevice access) {
    AccessStudyRow row;
    row.access = access;

    sram::SramCell cell =
        sram::build_cell(tfet6t_config(opt, models, access, opt.access_study_beta));
    row.static_power = sram::worst_hold_static_power(cell, opt.metrics);

    const sram::DrnmResult drnm =
        sram::dynamic_read_noise_margin(cell, Assist::kNone, opt.metrics);
    row.drnm = drnm.valid ? drnm.drnm : 0.0;
    row.read_ok = drnm.valid && !drnm.flipped && drnm.drnm > 0.05 * opt.vdd;

    row.wlcrit =
        sram::critical_wordline_pulse(cell, Assist::kNone, opt.metrics);
    row.write_ok = std::isfinite(row.wlcrit);

    row.viable = row.write_ok &&
                 std::isfinite(row.static_power) &&
                 row.static_power < opt.static_power_budget;
    return row;
}

} // namespace

RobustDesignReport explore(const ExplorerOptions& opt) {
    RobustDesignReport report;
    report.vdd = opt.vdd;

    const device::ModelSet models =
        device::make_model_set(opt.tfet_params, opt.tabulated_models);

    // ---- Stage 0 (optional): cell-zoo hold survey ----
    if (opt.survey_zoo) {
        for (const sram::ZooEntry& entry : sram::cell_zoo()) {
            const device::ModelSetSpec& ms =
                device::find_model_set(entry.model_set);
            const device::ModelSet zoo_models = device::make_model_set_at(
                ms, 300.0, 1.0, opt.tabulated_models);
            const sram::DesignSpec design =
                sram::make_zoo_design(entry, opt.vdd, zoo_models);
            sram::SramCell cell = sram::build_cell(design.config);
            ZooSurveyRow row;
            row.id = entry.id;
            row.name = design.name;
            row.static_power =
                sram::worst_hold_static_power(cell, opt.metrics);
            sram::program_hold(cell);
            row.holds_data =
                sram::solve_hold_state(cell, true, opt.metrics.solver)
                    .state_ok &&
                sram::solve_hold_state(cell, false, opt.metrics.solver)
                    .state_ok;
            report.zoo_survey.push_back(row);
        }
    }

    // ---- Stage 1: access-device study (Sec. 3) ----
    const AccessDevice all_access[] = {
        AccessDevice::kOutwardN, AccessDevice::kOutwardP,
        AccessDevice::kInwardN, AccessDevice::kInwardP};
    for (AccessDevice a : all_access)
        report.access_study.push_back(study_access(opt, models, a));

    double best_power = std::numeric_limits<double>::infinity();
    for (const AccessStudyRow& row : report.access_study) {
        if (row.viable && row.static_power < best_power) {
            best_power = row.static_power;
            report.chosen_access = row.access;
        }
    }
    if (!report.chosen_access) {
        // Fall back to the best writable choice even if no row met every
        // criterion, so the report is still actionable.
        for (const AccessStudyRow& row : report.access_study)
            if (row.write_ok)
                report.chosen_access = row.access;
    }
    if (!report.chosen_access)
        return report;
    const AccessDevice access = *report.chosen_access;

    // ---- Stage 2: assist sweeps (Sec. 4.1 / 4.2) ----
    auto sweep = [&](Assist assist, const std::vector<double>& betas) {
        for (double beta : betas) {
            sram::SramCell cell =
                sram::build_cell(tfet6t_config(opt, models, access, beta));
            AssistStudyPoint p;
            p.assist = assist;
            p.beta = beta;
            const Assist wa = sram::is_write_assist(assist) ? assist
                                                            : Assist::kNone;
            const Assist ra = sram::is_read_assist(assist) ? assist
                                                           : Assist::kNone;
            p.wlcrit = sram::critical_wordline_pulse(cell, wa, opt.metrics);
            const sram::DrnmResult d =
                sram::dynamic_read_noise_margin(cell, ra, opt.metrics);
            p.drnm = d.valid && !d.flipped ? d.drnm : 0.0;
            report.assist_curves.push_back(p);
        }
    };
    for (Assist a : sram::kWriteAssists)
        sweep(a, opt.wa_betas);
    for (Assist a : sram::kReadAssists)
        sweep(a, opt.ra_betas);

    // ---- Stage 3: score techniques (Fig. 8's lower-right criterion) ----
    // Normalize DRNM by VDD and WLcrit by a nanosecond; reward margin,
    // penalize slow writes, disqualify failures.
    auto score_point = [&](const AssistStudyPoint& p) {
        if (!std::isfinite(p.wlcrit) || p.drnm <= 0.0)
            return -std::numeric_limits<double>::infinity();
        return p.drnm / opt.vdd - p.wlcrit / 1e-9;
    };
    for (Assist a : {Assist::kWaVddLowering, Assist::kWaGndRaising,
                     Assist::kWaWordlineLowering, Assist::kWaBitlineRaising,
                     Assist::kRaVddRaising, Assist::kRaGndLowering,
                     Assist::kRaWordlineRaising,
                     Assist::kRaBitlineLowering}) {
        AssistScore best;
        best.assist = a;
        best.score = -std::numeric_limits<double>::infinity();
        for (const AssistStudyPoint& p : report.assist_curves) {
            if (p.assist != a)
                continue;
            const double s = score_point(p);
            if (s > best.score) {
                best.score = s;
                best.best_beta = p.beta;
                best.best_drnm = p.drnm;
                best.best_wlcrit = p.wlcrit;
            }
        }
        report.assist_scores.push_back(best);
    }
    const auto winner = std::max_element(
        report.assist_scores.begin(), report.assist_scores.end(),
        [](const AssistScore& x, const AssistScore& y) {
            return x.score < y.score;
        });
    if (winner != report.assist_scores.end() &&
        std::isfinite(winner->score)) {
        report.chosen_assist = winner->assist;
        report.chosen_beta = winner->best_beta;
    }
    if (!report.chosen_assist)
        return report;

    // ---- Recommended design ----
    sram::DesignSpec rec;
    rec.name = "explored robust 6T TFET SRAM";
    rec.config = tfet6t_config(opt, models, access, report.chosen_beta);
    if (sram::is_read_assist(*report.chosen_assist))
        rec.read_assist = *report.chosen_assist;
    else
        rec.write_assist = *report.chosen_assist;
    report.recommended = rec;

    // ---- Stage 4: Monte-Carlo robustness (Sec. 4.3) ----
    if (opt.mc_samples > 0) {
        mc::VariationSpec vspec;
        vspec.base = opt.tfet_params;
        vspec.tabulated = opt.tabulated_models;
        const mc::TfetVariationSampler sampler(vspec);

        RobustnessCheck check;
        check.samples = opt.mc_samples;
        const auto metric_opts = opt.metrics;
        const spice::SimContext& ctx = spice::ambient_context();
        const mc::McResult drnm_mc = mc::run_monte_carlo(
            ctx, rec.config, sampler, opt.mc_samples, opt.mc_seed,
            [&](sram::SramCell& cell) {
                const sram::DrnmResult d = sram::dynamic_read_noise_margin(
                    cell, rec.read_assist, metric_opts);
                return d.valid ? d.drnm : std::nan("");
            });
        const mc::McResult wl_mc = mc::run_monte_carlo(
            ctx, rec.config, sampler, opt.mc_samples, opt.mc_seed + 1,
            [&](sram::SramCell& cell) {
                return sram::critical_wordline_pulse(cell, rec.write_assist,
                                                     metric_opts);
            });
        check.drnm = drnm_mc.summary;
        check.wlcrit = wl_mc.summary;
        report.robustness = check;
    }
    return report;
}

} // namespace tfetsram::core
