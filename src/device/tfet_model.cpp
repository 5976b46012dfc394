#include "device/tfet_model.hpp"

#include <cmath>
#include <vector>

#include "util/contracts.hpp"

namespace tfetsram::device {

namespace {

/// Numerically safe softplus s*ln(1+exp(v/s)) and its derivative (sigmoid).
struct Softplus {
    double value;
    double slope;
};
Softplus softplus(double v, double s) {
    const double z = v / s;
    if (z > 30.0)
        return {v, 1.0};
    if (z < -30.0)
        return {0.0, 0.0};
    const double ez = std::exp(z);
    return {s * std::log1p(ez), ez / (1.0 + ez)};
}

double sigmoid(double z) {
    if (z > 30.0)
        return 1.0;
    if (z < -30.0)
        return 0.0;
    return 1.0 / (1.0 + std::exp(-z));
}

} // namespace

TfetModel::TfetModel(const TfetParams& params) : params_(params) {
    TFET_EXPECTS(params.i_on > params.i_off && params.i_off > 0.0);
    TFET_EXPECTS(params.e0 > 0.0 && params.e1 > 0.0);
    TFET_EXPECTS(params.v_sat > 0.0 && params.tox > 0.0);

    tox_field_scale_ =
        std::pow(params.tox_nom / params.tox, params.tox_exponent);

    // Temperature factors (calibration anchors are defined at 300 K).
    TFET_EXPECTS(params.temperature > 0.0);
    btbt_temp_factor_ =
        std::max(0.1, 1.0 + params.btbt_tc * (params.temperature - 300.0));
    constexpr double kBoltzmannEv = 8.617333e-5; // eV/K
    pin_is_eff_ = params.pin_is *
                  std::exp(params.pin_eg / kBoltzmannEv *
                           (1.0 / 300.0 - 1.0 / params.temperature));

    // Calibrate the Kane parameters so that at nominal tox the device meets
    // the paper's anchors: I(v_cal, v_cal) = i_on and I(0, v_cal) = i_off.
    const double e_on =
        params.e0 + params.e1 * softplus(params.v_cal, params.vgs_smoothing).value;
    const double e_off =
        params.e0 + params.e1 * softplus(0.0, params.vgs_smoothing).value;
    TFET_ASSERT(e_on > e_off);

    const double log_ratio = std::log(params.i_on / params.i_off);
    kane_b_ = (log_ratio - 2.0 * std::log(e_on / e_off)) /
              (1.0 / e_off - 1.0 / e_on);
    TFET_ENSURES(kane_b_ > 0.0);

    const double f_out = (1.0 - std::exp(-params.v_cal / params.v_sat)) *
                         (1.0 + params.lambda * params.v_cal);
    kane_k_ = params.i_on /
              (e_on * e_on * std::exp(-kane_b_ / e_on) * f_out);
    TFET_ENSURES(kane_k_ > 0.0);
}

TfetModel::Kernel TfetModel::kernel(double vgs) const {
    const Softplus sp = softplus(vgs, params_.vgs_smoothing);
    const double e = (params_.e0 + params_.e1 * sp.value) * tox_field_scale_;
    const double de_dvgs = params_.e1 * sp.slope * tox_field_scale_;
    const double expo = std::exp(-kane_b_ / e);
    const double k_eff = kane_k_ * btbt_temp_factor_;
    const double i = k_eff * e * e * expo;
    // d/dE [K E^2 exp(-B/E)] = K exp(-B/E) (2E + B)
    const double di_de = k_eff * expo * (2.0 * e + kane_b_);
    return {i, di_de * de_dvgs};
}

TfetModel::OutputTerms TfetModel::output_terms(double vds) const {
    // Output factor: exponential-onset saturation (forward), weak mirrored
    // saturating branch for the gated reverse tunneling. Slopes match at
    // vds = 0, so the composite is C1 there.
    OutputTerms o{0.0, 0.0, vds < 0.0, 0.0, 0.0};
    if (vds >= 0.0) {
        const double ex = std::exp(-vds / params_.v_sat);
        const double clm = 1.0 + params_.lambda * vds;
        o.fo = (1.0 - ex) * clm;
        o.dfo = ex / params_.v_sat * clm + (1.0 - ex) * params_.lambda;
    } else {
        const double a = params_.r_rev * params_.v_sat;
        const double ex = std::exp(vds / a); // vds < 0 -> ex in (0,1)
        o.fo = -params_.r_rev * (1.0 - ex);
        o.dfo = params_.r_rev / a * ex;
    }

    // p-i-n body diode under reverse bias (vds < 0): current flows source to
    // drain, i.e. negative in the drain->source convention. Linearized past
    // pin_vcrit so Newton cannot overflow the exponential.
    if (o.reverse) {
        const double u = -vds;
        if (u <= params_.pin_vcrit) {
            const double e_u = std::exp(u / params_.pin_vdec);
            o.i_pin = pin_is_eff_ * (e_u - 1.0);
            o.g_pin = pin_is_eff_ / params_.pin_vdec * e_u;
        } else {
            const double e_c = std::exp(params_.pin_vcrit / params_.pin_vdec);
            const double i_c = pin_is_eff_ * (e_c - 1.0);
            const double g_c = pin_is_eff_ / params_.pin_vdec * e_c;
            o.i_pin = i_c + g_c * (u - params_.pin_vcrit);
            o.g_pin = g_c;
        }
    }
    return o;
}

spice::IvSample TfetModel::combine_iv(const Kernel& k, const OutputTerms& o) {
    spice::IvSample s{k.i * o.fo, k.di_dvgs * o.fo, k.i * o.dfo};
    if (o.reverse) {
        s.ids -= o.i_pin;
        s.gds += o.g_pin;
    }
    return s;
}

spice::IvSample TfetModel::iv(double vgs, double vds) const {
    return combine_iv(kernel(vgs), output_terms(vds));
}

double TfetModel::cv_channel(double vgs) const {
    return sigmoid((vgs - params_.cv_vth) / params_.cv_slope);
}

double TfetModel::cv_saturation(double vds) {
    return sigmoid((vds - 0.3) / 0.1);
}

spice::CvSample TfetModel::combine_cv(double ch, double sat) const {
    // TFET gate capacitance is famously drain-dominated in saturation: the
    // source side is tunnel-limited, so the channel charge communicates
    // with the drain (the enhanced Miller capacitance TFET circuits see).
    // Near vds = 0 the channel charge splits roughly evenly between the
    // terminals, as in a triode MOSFET.
    const double c0 = params_.c_gate;
    const double cgd = c0 * (0.10 + ch * (0.35 + 0.35 * sat));
    const double cgs = c0 * (0.10 + ch * 0.35 * (1.0 - sat));
    return {cgs, cgd};
}

spice::CvSample TfetModel::cv(double vgs, double vds) const {
    return combine_cv(cv_channel(vgs), cv_saturation(vds));
}

void TfetModel::sample_grid(std::span<const double> vgs,
                            std::span<const double> vds,
                            const spice::GridRowFn& row) const {
    const std::size_t nx = vgs.size();
    std::vector<Kernel> kernels(nx);
    std::vector<double> channel(nx);
    for (std::size_t ix = 0; ix < nx; ++ix) {
        kernels[ix] = kernel(vgs[ix]);
        channel[ix] = cv_channel(vgs[ix]);
    }
    std::vector<spice::IvSample> iv_row(nx);
    std::vector<spice::CvSample> cv_row(nx);
    for (std::size_t iy = 0; iy < vds.size(); ++iy) {
        const OutputTerms o = output_terms(vds[iy]);
        const double sat = cv_saturation(vds[iy]);
        for (std::size_t ix = 0; ix < nx; ++ix) {
            iv_row[ix] = combine_iv(kernels[ix], o);
            cv_row[ix] = combine_cv(channel[ix], sat);
        }
        row(iy, iv_row, cv_row);
    }
}

} // namespace tfetsram::device
