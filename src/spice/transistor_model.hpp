#pragma once
// The contract between the circuit engine and device physics: a transistor
// model supplies the channel current (with partial derivatives) and the two
// terminal capacitances, all normalized per micron of width. Concrete models
// (analytic TFET/MOSFET physics and the lookup-table flavor the paper's
// Verilog-A flow uses) live in src/device.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace tfetsram::spice {

/// Channel current and its partial derivatives at one bias point,
/// per micron of device width. Current is taken positive drain->source.
struct IvSample {
    double ids;  ///< drain-source current [A/um]
    double gm;   ///< d ids / d vgs [S/um]
    double gds;  ///< d ids / d vds [S/um]
};

/// Terminal capacitances at one bias point, per micron of width.
struct CvSample {
    double cgs; ///< gate-source capacitance [F/um]
    double cgd; ///< gate-drain capacitance [F/um]
};

/// One vds row of a grid sweep: iv[ix] and cv[ix] are the samples at
/// (vgs[ix], vds[iy]). The spans are the sweep's scratch rows — the
/// callback may modify them, and the next row overwrites them.
using GridRowFn = std::function<void(std::size_t iy, std::span<IvSample> iv,
                                     std::span<CvSample> cv)>;

/// Abstract transistor characteristics. Implementations must be smooth
/// enough for Newton iteration (C1 in both arguments) and defined for all
/// real (vgs, vds) — including reverse bias, where TFET physics differs
/// fundamentally from MOSFETs.
class TransistorModel {
public:
    virtual ~TransistorModel() = default;

    /// I-V characteristic with derivatives.
    [[nodiscard]] virtual IvSample iv(double vgs, double vds) const = 0;

    /// Batched I-V: out[i] = iv(vgs[i], vds[i]) for i in [0, n). The
    /// default loops the scalar entry point; table-backed models override
    /// with a structure-of-arrays pass over their grids (the per-iterate
    /// hot loop at array scale). Overrides MUST be bitwise-identical to
    /// the scalar path — the dense/sparse differential suite asserts exact
    /// Jacobian equality across assembly backends.
    virtual void iv_many(const double* vgs, const double* vds, std::size_t n,
                         IvSample* out) const {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = iv(vgs[i], vds[i]);
    }

    /// C-V characteristic.
    [[nodiscard]] virtual CvSample cv(double vgs, double vds) const = 0;

    /// Grid sweep: I-V and C-V over the tensor product of the `vgs` and
    /// `vds` axes, handed to `row` one vds row at a time in order
    /// iy = 0, 1, ... — the table extractor's one call per build, which
    /// never materializes the full grid. The default loops iv()/cv();
    /// models whose physics separates per axis override it to evaluate
    /// each per-vgs and per-vds term once. Overrides MUST be bitwise-
    /// identical to the scalar loop (same contract as iv_many):
    /// extracted tables may not depend on which path built them.
    virtual void sample_grid(std::span<const double> vgs,
                             std::span<const double> vds,
                             const GridRowFn& row) const {
        std::vector<IvSample> iv_row(vgs.size());
        std::vector<CvSample> cv_row(vgs.size());
        for (std::size_t iy = 0; iy < vds.size(); ++iy) {
            for (std::size_t ix = 0; ix < vgs.size(); ++ix) {
                iv_row[ix] = iv(vgs[ix], vds[iy]);
                cv_row[ix] = cv(vgs[ix], vds[iy]);
            }
            row(iy, iv_row, cv_row);
        }
    }

    /// Short human-readable name for reports ("nTFET", "pMOS", ...).
    [[nodiscard]] virtual const char* name() const = 0;
};

using TransistorModelPtr = std::shared_ptr<const TransistorModel>;

} // namespace tfetsram::spice
