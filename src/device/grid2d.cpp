#include "device/grid2d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tfetsram::device {

namespace {
/// Monotone (Fritsch-Carlson) cubic Hermite interpolation of p0..p3 at
/// fractional position t in [0,1] between p1 and p2; returns value and
/// d/dt. Node slopes are the harmonic mean of adjacent secants (zero at
/// local extrema), which guarantees no overshoot — essential where the
/// asinh-compressed current crosses its near-logarithmic cliff at vds = 0 —
/// while staying C1 across cells and reproducing linear data exactly.
struct Cubic {
    double f;
    double dfdt;
};
inline Cubic monotone_hermite(double p0, double p1, double p2, double p3,
                              double t) {
    const double s0 = p1 - p0;
    const double s1 = p2 - p1;
    const double s2 = p3 - p2;
    const auto limited = [](double a, double b) {
        if (a * b <= 0.0)
            return 0.0;
        return 2.0 * a * b / (a + b);
    };
    const double m1 = limited(s0, s1);
    const double m2 = limited(s1, s2);
    const double t2 = t * t;
    const double t3 = t2 * t;
    const double f = (2.0 * t3 - 3.0 * t2 + 1.0) * p1 +
                     (t3 - 2.0 * t2 + t) * m1 +
                     (-2.0 * t3 + 3.0 * t2) * p2 + (t3 - t2) * m2;
    const double dfdt = (6.0 * t2 - 6.0 * t) * p1 +
                        (3.0 * t2 - 4.0 * t + 1.0) * m1 +
                        (-6.0 * t2 + 6.0 * t) * p2 + (3.0 * t2 - 2.0 * t) * m2;
    return {f, dfdt};
}

/// The same interpolant with the partial derivatives of its value with
/// respect to the four data points. The cross derivative of the surface
/// needs them: f = H(row_f(tx); ty), so df/dtx = sum_r dH/dq_r * row_f'_r —
/// the harmonic-mean limiter makes H nonlinear in its data, and
/// re-limiting the already-differentiated row slopes (the scheme this
/// replaced) yields a different, inconsistent derivative.
struct CubicW {
    double f;
    double dfdt;
    double dq0, dq1, dq2, dq3;     ///< d f / d p_r at fixed t
    double ddq0, ddq1, ddq2, ddq3; ///< d^2 f / (dt dp_r): the cross
                                   ///< derivative of the surface needs
                                   ///< these for d fx / dy
};
inline CubicW monotone_hermite_weights(double p0, double p1, double p2,
                                       double p3, double t) {
    const double s0 = p1 - p0;
    const double s1 = p2 - p1;
    const double s2 = p3 - p2;
    // L(a, b) = 2ab/(a+b) on a*b > 0, else 0; its partials on the smooth
    // branch are dL/da = 2 b^2/(a+b)^2 and dL/db = 2 a^2/(a+b)^2 (both 0
    // on the clamped branch, matching the zero slope there).
    double m1 = 0.0, la1 = 0.0, lb1 = 0.0;
    if (s0 * s1 > 0.0) {
        const double d = s0 + s1;
        m1 = 2.0 * s0 * s1 / d;
        la1 = 2.0 * s1 * s1 / (d * d);
        lb1 = 2.0 * s0 * s0 / (d * d);
    }
    double m2 = 0.0, la2 = 0.0, lb2 = 0.0;
    if (s1 * s2 > 0.0) {
        const double d = s1 + s2;
        m2 = 2.0 * s1 * s2 / d;
        la2 = 2.0 * s2 * s2 / (d * d);
        lb2 = 2.0 * s1 * s1 / (d * d);
    }
    const double t2 = t * t;
    const double t3 = t2 * t;
    const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
    const double h10 = t3 - 2.0 * t2 + t;
    const double h01 = -2.0 * t3 + 3.0 * t2;
    const double h11 = t3 - t2;
    CubicW w;
    w.f = h00 * p1 + h10 * m1 + h01 * p2 + h11 * m2;
    w.dfdt = (6.0 * t2 - 6.0 * t) * p1 + (3.0 * t2 - 4.0 * t + 1.0) * m1 +
             (-6.0 * t2 + 6.0 * t) * p2 + (3.0 * t2 - 2.0 * t) * m2;
    // Chain rule through m1(p0,p1,p2) and m2(p1,p2,p3): s0 = p1-p0 etc.
    w.dq0 = h10 * (-la1);
    w.dq1 = h00 + h10 * (la1 - lb1) + h11 * (-la2);
    w.dq2 = h01 + h10 * lb1 + h11 * (la2 - lb2);
    w.dq3 = h11 * lb2;
    // t-derivatives of the weights (la/lb do not depend on t): these give
    // d/dt of df/dp_r, i.e. the mixed partial the 2-D cross derivative is
    // assembled from.
    const double h00p = 6.0 * t2 - 6.0 * t;
    const double h10p = 3.0 * t2 - 4.0 * t + 1.0;
    const double h01p = -6.0 * t2 + 6.0 * t;
    const double h11p = 3.0 * t2 - 2.0 * t;
    w.ddq0 = h10p * (-la1);
    w.ddq1 = h00p + h10p * (la1 - lb1) + h11p * (-la2);
    w.ddq2 = h01p + h10p * lb1 + h11p * (la2 - lb2);
    w.ddq3 = h11p * lb2;
    return w;
}
} // namespace

Grid2d::Grid2d(double x0, double x1, std::size_t nx, double y0, double y1,
               std::size_t ny)
    : x0_(x0), x1_(x1), y0_(y0), y1_(y1), nx_(nx), ny_(ny),
      data_(nx * ny, 0.0) {
    TFET_EXPECTS(nx >= 4 && ny >= 4);
    TFET_EXPECTS(x1 > x0 && y1 > y0);
    hx_ = (x1 - x0) / static_cast<double>(nx - 1);
    hy_ = (y1 - y0) / static_cast<double>(ny - 1);
    inv_hx_ = 1.0 / hx_;
    inv_hy_ = 1.0 / hy_;
}

double Grid2d::x_at(std::size_t ix) const {
    TFET_EXPECTS(ix < nx_);
    return x0_ + hx_ * static_cast<double>(ix);
}

double Grid2d::y_at(std::size_t iy) const {
    TFET_EXPECTS(iy < ny_);
    return y0_ + hy_ * static_cast<double>(iy);
}

double& Grid2d::at(std::size_t ix, std::size_t iy) {
    TFET_EXPECTS(ix < nx_ && iy < ny_);
    return data_[iy * nx_ + ix];
}

double Grid2d::at(std::size_t ix, std::size_t iy) const {
    TFET_EXPECTS(ix < nx_ && iy < ny_);
    return data_[iy * nx_ + ix];
}

bool Grid2d::same_axes(const Grid2d& other) const {
    return x0_ == other.x0_ && x1_ == other.x1_ && nx_ == other.nx_ &&
           y0_ == other.y0_ && y1_ == other.y1_ && ny_ == other.ny_;
}

Grid2d::Cell Grid2d::locate(double x, double y) const {
    // Clamp so the upper edge evaluates in the last cell. Multiplying by
    // the precomputed reciprocal steps keeps hardware divides out of the
    // per-iterate device-evaluation hot loop. Callers pass in-domain
    // (finite) coordinates only, so the index conversion is defined.
    const double fx_pos = (x - x0_) * inv_hx_;
    const double fy_pos = (y - y0_) * inv_hy_;
    const auto ix = std::min(static_cast<std::size_t>(std::max(fx_pos, 0.0)),
                             nx_ - 2);
    const auto iy = std::min(static_cast<std::size_t>(std::max(fy_pos, 0.0)),
                             ny_ - 2);
    return {ix, iy, fx_pos - static_cast<double>(ix),
            fy_pos - static_cast<double>(iy)};
}

Grid2d::InnerSample Grid2d::eval_inside(double x, double y) const {
    const Cell cell = locate(x, y);
    const std::size_t ix = cell.ix;
    const std::size_t iy = cell.iy;
    const double tx = cell.tx;
    const double ty = cell.ty;

    double row_f[4];
    double row_fx[4];
    if (interior(cell)) {
        // Interior fast path: the whole 4x4 stencil is on-grid, so the
        // samples read straight out of the row-major store. This is the
        // branch the device tables take almost always (241x241 grids) and
        // the one the batched evaluator leans on.
        const double* base = data_.data() + (iy - 1) * nx_ + (ix - 1);
        for (int r = 0; r < 4; ++r) {
            const double* p = base + static_cast<std::size_t>(r) * nx_;
            const Cubic c = monotone_hermite(p[0], p[1], p[2], p[3], tx);
            row_f[r] = c.f;
            row_fx[r] = c.dfdt * inv_hx_;
        }
    } else {
        // Fetch with linear extrapolation one sample beyond each edge, so
        // the stencil reproduces linear surfaces exactly at the boundary
        // (clamped padding would flatten them).
        auto fetch = [this](std::ptrdiff_t gx, std::ptrdiff_t gy) {
            const auto nxi = static_cast<std::ptrdiff_t>(nx_);
            const auto nyi = static_cast<std::ptrdiff_t>(ny_);
            double wx0 = 1.0;
            double wx1 = 0.0;
            std::ptrdiff_t gx0 = gx;
            std::ptrdiff_t gx1 = gx;
            if (gx < 0) {
                gx0 = 0;
                gx1 = 1;
                wx0 = 2.0;
                wx1 = -1.0;
            } else if (gx >= nxi) {
                gx0 = nxi - 1;
                gx1 = nxi - 2;
                wx0 = 2.0;
                wx1 = -1.0;
            }
            double wy0 = 1.0;
            double wy1 = 0.0;
            std::ptrdiff_t gy0 = gy;
            std::ptrdiff_t gy1 = gy;
            if (gy < 0) {
                gy0 = 0;
                gy1 = 1;
                wy0 = 2.0;
                wy1 = -1.0;
            } else if (gy >= nyi) {
                gy0 = nyi - 1;
                gy1 = nyi - 2;
                wy0 = 2.0;
                wy1 = -1.0;
            }
            auto v = [this](std::ptrdiff_t a, std::ptrdiff_t b) {
                return at(static_cast<std::size_t>(a),
                          static_cast<std::size_t>(b));
            };
            return wx0 * (wy0 * v(gx0, gy0) + wy1 * v(gx0, gy1)) +
                   wx1 * (wy0 * v(gx1, gy0) + wy1 * v(gx1, gy1));
        };
        for (int r = 0; r < 4; ++r) {
            const auto gy = static_cast<std::ptrdiff_t>(iy) + r - 1;
            const auto gx = static_cast<std::ptrdiff_t>(ix);
            const double p0 = fetch(gx - 1, gy);
            const double p1 = fetch(gx, gy);
            const double p2 = fetch(gx + 1, gy);
            const double p3 = fetch(gx + 2, gy);
            const Cubic c = monotone_hermite(p0, p1, p2, p3, tx);
            row_f[r] = c.f;
            row_fx[r] = c.dfdt * inv_hx_;
        }
    }

    // y-pass with data partials: f = H(row_f; ty), so the exact surface
    // partials are df/dy = dH/dt / hy and df/dx = sum_r dH/drow_f[r] *
    // row_fx[r] — the derivatives of the same interpolant the value comes
    // from, which is what keeps the Newton Jacobian consistent with the
    // residual.
    const CubicW cy =
        monotone_hermite_weights(row_f[0], row_f[1], row_f[2], row_f[3], ty);
    const double fx = cy.dq0 * row_fx[0] + cy.dq1 * row_fx[1] +
                      cy.dq2 * row_fx[2] + cy.dq3 * row_fx[3];
    const double fxy = (cy.ddq0 * row_fx[0] + cy.ddq1 * row_fx[1] +
                        cy.ddq2 * row_fx[2] + cy.ddq3 * row_fx[3]) *
                       inv_hy_;
    return {cy.f, fx, cy.dfdt * inv_hy_, fxy};
}

Grid2d::Sample Grid2d::eval(double x, double y) const {
    if (!std::isfinite(x) || !std::isfinite(y)) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        return {nan, nan, nan};
    }
    const double xc = std::clamp(x, x0_, x1_);
    const double yc = std::clamp(y, y0_, y1_);
    const InnerSample s = eval_inside(xc, yc);
    if (x == xc && y == yc)
        return {s.f, s.fx, s.fy};
    // Bilinear extension beyond the table keeps Newton iterates finite.
    // The boundary slope varies along the edge, so the cross term is what
    // makes the reported fx/fy the exact partials of this extension — a
    // pure f += fx*dx + fy*dy continuation would hand Newton a Jacobian
    // inconsistent with the residual beside the table edges.
    const double dx = x - xc;
    const double dy = y - yc;
    return {s.f + s.fx * dx + s.fy * dy + s.fxy * dx * dy,
            s.fx + s.fxy * dy, s.fy + s.fxy * dx};
}

void Grid2d::eval_many(const double* xs, const double* ys, std::size_t n,
                       Sample* out) const {
    // One tight pass over structure-of-arrays inputs: shared clamp +
    // cell-locate + fused value/derivative evaluation per point, identical
    // arithmetic to eval() (the batched device path depends on bitwise
    // agreement with the scalar path).
    for (std::size_t i = 0; i < n; ++i)
        out[i] = eval(xs[i], ys[i]);
}

Grid2d::ValuePair Grid2d::values(const Grid2d& a, const Grid2d& b, double x,
                                 double y) {
    TFET_EXPECTS(a.same_axes(b));
    if (!std::isfinite(x) || !std::isfinite(y)) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        return {nan, nan};
    }
    // Off the table or in an edge cell: eval()'s bilinear extension and
    // padded stencil, unchanged. (The in-domain test is std::clamp's, so a
    // point takes this fallback exactly when eval() would extend.)
    if (x < a.x0_ || a.x1_ < x || y < a.y0_ || a.y1_ < y)
        return {a.eval(x, y).f, b.eval(x, y).f};
    const Cell cell = a.locate(x, y);
    if (!a.interior(cell))
        return {a.eval(x, y).f, b.eval(x, y).f};
    // eval_inside's interior branch and y-pass with only .f read: the
    // inlined derivative and weight terms are dead and drop out, so the
    // value comes from the very same expressions.
    const std::size_t offset = (cell.iy - 1) * a.nx_ + (cell.ix - 1);
    const auto value = [&](const Grid2d& g) {
        const double* base = g.data_.data() + offset;
        double row_f[4];
        for (int r = 0; r < 4; ++r) {
            const double* p = base + static_cast<std::size_t>(r) * g.nx_;
            row_f[r] = monotone_hermite(p[0], p[1], p[2], p[3], cell.tx).f;
        }
        return monotone_hermite_weights(row_f[0], row_f[1], row_f[2],
                                        row_f[3], cell.ty)
            .f;
    };
    return {value(a), value(b)};
}

} // namespace tfetsram::device
