#pragma once
// Uniform 2-D grid with C1 (Catmull-Rom bicubic) interpolation and analytic
// gradients. This is the numerical core of the lookup-table device model:
// Newton iteration needs continuous first derivatives, which bilinear
// interpolation cannot provide.

#include <cstddef>
#include <vector>

#include "util/contracts.hpp"

namespace tfetsram::device {

class Grid2d {
public:
    /// Grid over [x0, x1] x [y0, y1] with nx * ny samples (nx, ny >= 4).
    Grid2d(double x0, double x1, std::size_t nx, double y0, double y1,
           std::size_t ny);

    [[nodiscard]] std::size_t nx() const { return nx_; }
    [[nodiscard]] std::size_t ny() const { return ny_; }
    [[nodiscard]] double x_at(std::size_t ix) const;
    [[nodiscard]] double y_at(std::size_t iy) const;

    double& at(std::size_t ix, std::size_t iy);
    [[nodiscard]] double at(std::size_t ix, std::size_t iy) const;

    /// Interpolated value and gradient.
    struct Sample {
        double f;
        double fx;
        double fy;
    };

    /// Evaluate at (x, y). Outside the domain the surface continues
    /// linearly along the boundary gradient, so Newton excursions beyond
    /// the table stay well-behaved. fx/fy are the exact partial
    /// derivatives of the interpolated surface f — Newton's Jacobian must
    /// differentiate the same function the residual evaluates. A
    /// non-finite coordinate yields NaN in every field (it never reaches
    /// the cell locate's float-to-index conversion).
    [[nodiscard]] Sample eval(double x, double y) const;

    /// Batched evaluation: out[i] = eval(xs[i], ys[i]) for i in [0, n).
    /// One structure-of-arrays pass (shared cell-locate, fused
    /// value+derivative) — the per-iterate hot loop of array-scale device
    /// evaluation. Bitwise-identical to n scalar eval() calls.
    void eval_many(const double* xs, const double* ys, std::size_t n,
                   Sample* out) const;

    /// Values of two grids on the same axes at one point.
    struct ValuePair {
        double a;
        double b;
    };

    /// Value-only evaluation of `a` and `b` (which must have the same
    /// axes) at (x, y): bitwise {a.eval(x, y).f, b.eval(x, y).f}. Inside
    /// the interior cells it locates the cell once and runs only the value
    /// half of eval()'s arithmetic — the same expressions in the same
    /// order, with the derivative terms left out (the value depends only on
    /// the row values and their limited slopes, never on fx/fy/fxy). Off
    /// the table and in the edge cells it returns eval().f itself, and a
    /// non-finite coordinate gives NaN for both. The scalar C-V hot path
    /// (DeviceTable::cv) reads cgs and cgd this way.
    [[nodiscard]] static ValuePair values(const Grid2d& a, const Grid2d& b,
                                          double x, double y);

private:
    /// True when `other` spans the same domain with the same samples per
    /// axis, so one cell locate serves both grids.
    [[nodiscard]] bool same_axes(const Grid2d& other) const;

    /// Cell containing an in-domain point: the lower-left node (clamped
    /// so the upper edge falls in the last cell) and the fractional
    /// position inside the cell.
    struct Cell {
        std::size_t ix;
        std::size_t iy;
        double tx;
        double ty;
    };
    [[nodiscard]] Cell locate(double x, double y) const;

    /// True when the whole 4x4 stencil around `c` is on the grid.
    [[nodiscard]] bool interior(const Cell& c) const {
        return c.ix >= 1 && c.ix + 2 < nx_ && c.iy >= 1 && c.iy + 2 < ny_;
    }

    /// Sample plus the cross second derivative d2f/dxdy at the same point.
    /// The linear extension beyond the table needs it: the boundary slope
    /// varies along the edge, so without the cross term the reported
    /// gradient would not be the derivative of the extended surface.
    struct InnerSample {
        double f;
        double fx;
        double fy;
        double fxy;
    };
    [[nodiscard]] InnerSample eval_inside(double x, double y) const;

    double x0_, x1_, y0_, y1_;
    std::size_t nx_, ny_;
    double hx_, hy_;
    double inv_hx_, inv_hy_; ///< reciprocals: the hot path multiplies
    std::vector<double> data_; // row-major: [iy * nx + ix]
};

} // namespace tfetsram::device
