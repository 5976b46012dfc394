#pragma once
// Factory functions assembling the device zoo the paper's experiments use:
// n/p TFETs (analytic or tabulated) and n/p MOSFETs for the 32 nm CMOS
// baseline. P-type devices are polarity mirrors of the n-type physics.

#include "device/device_table.hpp"
#include "device/mosfet_model.hpp"
#include "device/tfet_model.hpp"

namespace tfetsram::device {

/// Polarity mirror: I_p(vgs, vds) = -I_n(-vgs, -vds) with matching
/// derivative transforms and mirrored capacitances.
class MirrorModel final : public spice::TransistorModel {
public:
    MirrorModel(spice::TransistorModelPtr inner, std::string name);

    [[nodiscard]] spice::IvSample iv(double vgs, double vds) const override;
    [[nodiscard]] spice::CvSample cv(double vgs, double vds) const override;
    [[nodiscard]] const char* name() const override { return name_.c_str(); }

    /// Batched mirror: negate the bias arrays once, run the inner model's
    /// (possibly fused) batch sweep, then apply the polarity transform —
    /// keeps p-type tables on the structure-of-arrays fast path.
    void iv_many(const double* vgs, const double* vds, std::size_t n,
                 spice::IvSample* out) const override;

    /// Mirrored grid sweep: negate both axes, let the inner model sweep
    /// them (separably, when it can), and negate each row's current.
    void sample_grid(std::span<const double> vgs, std::span<const double> vds,
                     const spice::GridRowFn& row) const override;

private:
    spice::TransistorModelPtr inner_;
    std::string name_;
};

/// Analytic n-type TFET.
spice::TransistorModelPtr make_ntfet(const TfetParams& params = {});

/// Analytic p-type TFET (mirror of the n-type).
spice::TransistorModelPtr make_ptfet(const TfetParams& params = {});

/// Analytic n-channel MOSFET (32 nm LP defaults).
spice::TransistorModelPtr make_nmos(const MosfetParams& params = {});

/// Defaults used by make_pmos: specific current derated to the usual
/// hole-mobility deficit.
MosfetParams pmos_defaults();

/// Analytic p-channel MOSFET.
spice::TransistorModelPtr make_pmos(const MosfetParams& params = pmos_defaults());

/// Version tag for the standard model set built by make_model_set with
/// default parameters. Cache keys include it so that a deliberate change
/// to the device physics invalidates every cached sweep point; bump it
/// whenever the default models' I-V/C-V behavior changes.
inline constexpr const char* kModelSetVersion = "std-2011.2";

/// The four models every SRAM experiment consumes.
struct ModelSet {
    spice::TransistorModelPtr ntfet;
    spice::TransistorModelPtr ptfet;
    spice::TransistorModelPtr nmos;
    spice::TransistorModelPtr pmos;
};

/// Build the standard model set. When `tabulated` is true (the default, and
/// the paper's flow) the TFETs are extracted into lookup tables first; the
/// MOSFETs always stay analytic (the paper simulates CMOS with PTM, not
/// tables).
ModelSet make_model_set(const TfetParams& tfet_params = {},
                        bool tabulated = true,
                        const TableSpec& spec = {});

} // namespace tfetsram::device
