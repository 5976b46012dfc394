#pragma once
// Lookup-table transistor model — the circuit-simulation flow of the paper:
// "the I-V and C-V TFET data are stored in two-dimensional lookup tables,
// which are then used by Verilog-A to implement a lookup table based model"
// (Sec. 2).
//
// Storage uses output-function factorization: the raw current I(vgs, vds)
// spans ~13 decades and, worse, passes through zero along vds = 0 with a
// near-logarithmic cliff that no polynomial interpolant can follow. The
// table therefore stores
//     T(vgs, vds) = asinh( I / (F(vds) * i_ref) ),
// where F(vds) = sign(vds) * (1 - exp(-|vds|/v0)) is a fixed, device-
// independent output shape that absorbs the linear zero crossing. T is
// smooth through vds = 0 (its value there is the channel conductance times
// v0, asinh-compressed), so
//     I  = F * i_ref * sinh(T)
// reconstructs with high relative accuracy everywhere, and the chain-rule
// derivatives of this expression are *exactly* the derivatives of the
// interpolant — Newton sees a consistent C1 system.

#include <string>

#include "device/grid2d.hpp"
#include "spice/transistor_model.hpp"

namespace tfetsram::device {

/// Grid extent/resolution of an extracted device table.
struct TableSpec {
    double v_min = -1.5;     ///< lower bias bound on both axes [V]
    double v_max = 1.5;      ///< upper bias bound on both axes [V]
    std::size_t points = 241; ///< samples per axis (odd => vds = 0 on-grid)
    double i_ref = 1e-18;    ///< asinh compression reference current [A/um]
    double v_out = 0.15;     ///< output-shape voltage scale v0 [V]
};

/// Tabulated TransistorModel. Construct via build_table() in
/// table_builder.hpp. x-axis = vgs, y-axis = vds.
class DeviceTable final : public spice::TransistorModel {
public:
    DeviceTable(std::string name, const TableSpec& spec);

    [[nodiscard]] spice::IvSample iv(double vgs, double vds) const override;
    /// Cgs and Cgd from one value-only lookup of the two C-V grids
    /// (Grid2d::values), each floored at 1e-18 F/um; bitwise
    /// max(cgs_grid().eval(vgs, vds).f, 1e-18) and the same for cgd.
    [[nodiscard]] spice::CvSample cv(double vgs, double vds) const override;
    [[nodiscard]] const char* name() const override { return name_.c_str(); }

    /// Fused batched I-V: one structure-of-arrays interpolation sweep over
    /// the T grid followed by the sinh/cosh reconstruction, bitwise equal
    /// to n scalar iv() calls. This is the array-scale hot loop the
    /// DeviceEvalBatch drives once per Newton iterate.
    void iv_many(const double* vgs, const double* vds, std::size_t n,
                 spice::IvSample* out) const override;

    [[nodiscard]] const TableSpec& spec() const { return spec_; }

    /// Raw grids, exposed for the builder and for tests.
    [[nodiscard]] Grid2d& t_grid() { return t_grid_; }
    [[nodiscard]] Grid2d& cgs_grid() { return cgs_grid_; }
    [[nodiscard]] Grid2d& cgd_grid() { return cgd_grid_; }
    [[nodiscard]] const Grid2d& t_grid() const { return t_grid_; }
    [[nodiscard]] const Grid2d& cgs_grid() const { return cgs_grid_; }
    [[nodiscard]] const Grid2d& cgd_grid() const { return cgd_grid_; }

    /// The fixed output shape F(vds) and its derivative.
    struct OutputShape {
        double f;
        double df;
    };
    [[nodiscard]] OutputShape output_shape(double vds) const;

    /// Compression used at build time: T = asinh(ratio / i_ref).
    [[nodiscard]] double compress_ratio(double ratio) const;

private:
    std::string name_;
    TableSpec spec_;
    Grid2d t_grid_;
    Grid2d cgs_grid_;
    Grid2d cgd_grid_;
};

} // namespace tfetsram::device
