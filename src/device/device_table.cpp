#include "device/device_table.hpp"

#include <algorithm>
#include <cmath>

namespace tfetsram::device {

DeviceTable::DeviceTable(std::string name, const TableSpec& spec)
    : name_(std::move(name)), spec_(spec),
      t_grid_(spec.v_min, spec.v_max, spec.points, spec.v_min, spec.v_max,
              spec.points),
      cgs_grid_(spec.v_min, spec.v_max, spec.points, spec.v_min, spec.v_max,
                spec.points),
      cgd_grid_(spec.v_min, spec.v_max, spec.points, spec.v_min, spec.v_max,
                spec.points) {
    TFET_EXPECTS(spec.i_ref > 0.0);
    TFET_EXPECTS(spec.v_out > 0.0);
    TFET_EXPECTS(spec.points >= 5);
}

DeviceTable::OutputShape DeviceTable::output_shape(double vds) const {
    const double a = std::fabs(vds) / spec_.v_out;
    const double e = std::exp(-std::min(a, 700.0));
    const double mag = 1.0 - e;
    return {vds >= 0.0 ? mag : -mag, e / spec_.v_out};
}

double DeviceTable::compress_ratio(double ratio) const {
    return std::asinh(ratio / spec_.i_ref);
}

spice::IvSample DeviceTable::iv(double vgs, double vds) const {
    const Grid2d::Sample t = t_grid_.eval(vgs, vds);
    const OutputShape out = output_shape(vds);
    // Guard the exponentials against pathological extrapolation far
    // off-grid. sinh and cosh come from a single exp (one libm call per
    // sample instead of two — this pair is the per-transistor arithmetic
    // of the Newton hot loop).
    const double tc = std::clamp(t.f, -600.0, 600.0);
    const double ex = std::exp(tc);
    const double exi = 1.0 / ex;
    const double sh = 0.5 * (ex - exi);
    const double ch = 0.5 * (ex + exi);
    const double ir = spec_.i_ref;
    spice::IvSample s;
    s.ids = out.f * ir * sh;
    // Exact derivatives of the reconstruction: Newton sees the same
    // surface it is solving.
    s.gm = out.f * ir * ch * t.fx;
    s.gds = out.df * ir * sh + out.f * ir * ch * t.fy;
    return s;
}

void DeviceTable::iv_many(const double* vgs, const double* vds, std::size_t n,
                          spice::IvSample* out) const {
    // Scratch per thread: models are shared across worker threads, and the
    // batch path must stay allocation-free in the Newton hot loop.
    thread_local std::vector<Grid2d::Sample> t_scratch;
    if (t_scratch.size() < n)
        t_scratch.resize(n);
    t_grid_.eval_many(vgs, vds, n, t_scratch.data());
    const double ir = spec_.i_ref;
    for (std::size_t i = 0; i < n; ++i) {
        // Same arithmetic as iv(), in the same order — the differential
        // suites assert bitwise agreement between the paths.
        const Grid2d::Sample& t = t_scratch[i];
        const OutputShape out_shape = output_shape(vds[i]);
        const double tc = std::clamp(t.f, -600.0, 600.0);
        const double ex = std::exp(tc);
        const double exi = 1.0 / ex;
        const double sh = 0.5 * (ex - exi);
        const double ch = 0.5 * (ex + exi);
        out[i].ids = out_shape.f * ir * sh;
        out[i].gm = out_shape.f * ir * ch * t.fx;
        out[i].gds = out_shape.df * ir * sh + out_shape.f * ir * ch * t.fy;
    }
}

spice::CvSample DeviceTable::cv(double vgs, double vds) const {
    // Both capacitance grids share the (vgs, vds) axes: one cell locate,
    // values only — bitwise {cgs_grid_.eval().f, cgd_grid_.eval().f}.
    const Grid2d::ValuePair c = Grid2d::values(cgs_grid_, cgd_grid_, vgs, vds);
    // Interpolation undershoot must not produce a negative capacitance.
    return {std::max(c.a, 1e-18), std::max(c.b, 1e-18)};
}

} // namespace tfetsram::device
