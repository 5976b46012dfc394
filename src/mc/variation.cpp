#include "mc/variation.hpp"

#include <algorithm>
#include <cmath>

#include "device/table_builder.hpp"

namespace tfetsram::mc {

TfetVariationSampler::TfetVariationSampler(const VariationSpec& spec)
    : spec_(spec) {
    TFET_EXPECTS(spec.tox_bound_frac > 0.0 && spec.tox_bound_frac < 0.5);
    TFET_EXPECTS(spec.tox_sigma_frac >= 0.0);
    nominal_mosfets_.nmos = device::make_nmos();
    nominal_mosfets_.pmos = device::make_pmos();
}

TfetVariationSampler::Draw TfetVariationSampler::sample(Rng& rng) const {
    return draw_at_tox(sample_tox(rng));
}

double TfetVariationSampler::sample_tox(Rng& rng) const {
    const double nominal = spec_.base.tox_nom;
    return rng.truncated_normal(nominal, spec_.tox_sigma_frac * nominal,
                                spec_.tox_bound_frac * nominal);
}

TfetVariationSampler::Draw TfetVariationSampler::sample_at(double u) const {
    return draw_at_tox(tox_at(u));
}

double TfetVariationSampler::tox_at(double u) const {
    TFET_EXPECTS(std::isfinite(u));
    const double nominal = spec_.base.tox_nom;
    return std::max(nominal * (1.0 + spec_.tox_sigma_frac * u),
                    0.05 * nominal);
}

TfetVariationSampler::Draw TfetVariationSampler::draw_at_tox(
    double tox) const {
    device::TfetParams p = spec_.base;
    p.tox = tox;

    Draw draw;
    draw.tox = tox;
    draw.models.ntfet = device::make_ntfet(p);
    draw.models.ptfet = device::make_ptfet(p);
    if (spec_.tabulated) {
        draw.models.ntfet =
            device::build_table(*draw.models.ntfet, spec_.table_spec);
        draw.models.ptfet =
            device::build_table(*draw.models.ptfet, spec_.table_spec);
    }
    draw.models.nmos = nominal_mosfets_.nmos;
    draw.models.pmos = nominal_mosfets_.pmos;
    return draw;
}

} // namespace tfetsram::mc
