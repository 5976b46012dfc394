#pragma once
// Analytic Si TFET model. This plays the role Sentaurus TCAD played in the
// paper: it is the source of I-V and C-V data, calibrated to the anchors the
// paper reports, from which lookup tables are extracted for circuit
// simulation (Sec. 2 of the paper).
//
// Physics summary (n-type; the p-type device is a mirror):
//  * Forward (vds > 0): Kane band-to-band tunneling. The tunneling
//    generation rate ~ E^2 exp(-B/E) where the junction field E rises
//    roughly linearly with gate overdrive. This produces the hallmark TFET
//    transfer curve: extremely steep swing near threshold that gradually
//    flattens at high vgs, with on/off ratios of ~13 decades.
//  * Output (vds): early, exponential-onset saturation plus weak channel
//    length modulation.
//  * Reverse (vds < 0): two paths in parallel. (a) The gated junction still
//    tunnels, but weakly (fraction r_rev of the forward kernel, saturating
//    symmetrically). (b) The p-i-n body diode forward-biases; calibrated so
//    reverse current is ~1e-12 A/um at 0.6 V, ~1e-8 at 0.8 V, and
//    comparable to the on-current only near 1 V — the "unidirectional
//    conduction" behaviour of Fig. 2(b) and the 5-/9-order static-power
//    penalty of outward access transistors in Sec. 3.
//
// All currents are per micron of width; all capacitances per micron.

#include "spice/transistor_model.hpp"

namespace tfetsram::device {

/// Geometry/calibration parameters of the Si TFET (defaults per the paper:
/// L = 32 nm, 2 nm HfO2 gate insulator, 2 nm underlap).
struct TfetParams {
    // Calibration anchors (paper Sec. 2).
    double i_on = 1e-4;   ///< A/um at vgs = vds = 1 V
    double i_off = 1e-17; ///< A/um at vgs = 0, vds = 1 V
    double v_cal = 1.0;   ///< calibration gate/drain voltage [V]

    // Tunneling-field shape: E(vgs) = (e0 + e1 * softplus(vgs)) * tox_nom/tox.
    // Defaults give the paper's transfer-curve shape: ~29 mV/dec near
    // threshold, flattening past 0.5 V (Fig. 2a).
    double e0 = 0.04;
    double e1 = 0.46;
    double vgs_smoothing = 0.05; ///< softplus sharpness [V]

    // Output characteristic.
    double v_sat = 0.15;  ///< saturation voltage scale [V]
    double lambda = 0.05; ///< channel-length modulation [1/V]

    // Reverse conduction. The gated branch saturates at r_rev of the
    // forward kernel (Fig. 2b: reverse comparable to forward only near
    // vds = 0 and |vds| = 1 V); the p-i-n branch is calibrated so the
    // outward-access hold penalty lands at the paper's ~5 / ~9 orders of
    // magnitude at 0.6 / 0.8 V.
    double r_rev = 0.4;     ///< gated reverse-tunneling fraction
    double pin_is = 1e-23;  ///< p-i-n diode scale current [A/um]
    double pin_vdec = 0.05 / 2.302585092994046; ///< 50 mV/decade slope [V]
    double pin_vcrit = 0.85; ///< linearize the diode beyond this bias [V]

    // Gate stack (for C-V and process variation). A thinner insulator both
    // raises the junction field and tightens electrostatic control, so the
    // effective field scales as (tox_nom/tox)^tox_exponent.
    double tox = 2e-9;      ///< gate insulator thickness [m]
    double tox_nom = 2e-9;  ///< nominal thickness the calibration assumed [m]
    double tox_exponent = 2.0; ///< field sensitivity to thickness
    double c_gate = 0.15e-15; ///< total gate capacitance scale [F/um]

    // C-V shape.
    double cv_vth = 0.4;   ///< channel-formation voltage [V]
    double cv_slope = 0.12;

    // Temperature. Band-to-band tunneling is nearly temperature
    // independent (a weak linear increase from bandgap narrowing) — the
    // TFET's second selling point after the steep swing — while the p-i-n
    // diode saturation current is thermally activated like any junction.
    double temperature = 300.0; ///< device temperature [K]
    double btbt_tc = 2e-3;      ///< kernel multiplier slope [1/K]
    double pin_eg = 1.12;       ///< p-i-n activation energy [eV]
};

/// Analytic n-type TFET. Thread-compatible and immutable after construction.
class TfetModel final : public spice::TransistorModel {
public:
    explicit TfetModel(const TfetParams& params);

    [[nodiscard]] spice::IvSample iv(double vgs, double vds) const override;
    [[nodiscard]] spice::CvSample cv(double vgs, double vds) const override;
    [[nodiscard]] const char* name() const override { return "nTFET"; }

    /// Separable grid sweep: the tunneling kernel and the C-V channel
    /// term depend only on vgs, the output factor, p-i-n diode and C-V
    /// saturation term only on vds, so each is evaluated once per axis
    /// node and combined per grid node exactly as iv()/cv() combine them.
    void sample_grid(std::span<const double> vgs, std::span<const double> vds,
                     const spice::GridRowFn& row) const override;

    [[nodiscard]] const TfetParams& params() const { return params_; }

    /// Kane prefactor resolved by calibration.
    [[nodiscard]] double kane_k() const { return kane_k_; }
    /// Kane exponent resolved by calibration.
    [[nodiscard]] double kane_b() const { return kane_b_; }

    /// The gate-controlled tunneling kernel K E^2 exp(-B/E) and its vgs
    /// derivative (per um). Exposed for tests and table diagnostics.
    struct Kernel {
        double i;
        double di_dvgs;
    };
    [[nodiscard]] Kernel kernel(double vgs) const;

private:
    /// The vds-only factors of iv(): output factor fo (with dfo =
    /// d fo / d vds) and, under reverse bias, the p-i-n diode branch.
    struct OutputTerms {
        double fo;
        double dfo;
        bool reverse; ///< vds < 0: the diode branch applies
        double i_pin;
        double g_pin;
    };
    [[nodiscard]] OutputTerms output_terms(double vds) const;
    [[nodiscard]] static spice::IvSample combine_iv(const Kernel& k,
                                                    const OutputTerms& o);

    /// The vgs-only (channel formation) and vds-only (drain saturation)
    /// sigmoids of cv(), and their per-node combination.
    [[nodiscard]] double cv_channel(double vgs) const;
    [[nodiscard]] static double cv_saturation(double vds);
    [[nodiscard]] spice::CvSample combine_cv(double ch, double sat) const;

    TfetParams params_;
    double kane_k_ = 0.0;
    double kane_b_ = 0.0;
    double tox_field_scale_ = 1.0; ///< (tox_nom/tox)^exp: thinner oxide -> higher field
    double btbt_temp_factor_ = 1.0; ///< weak tunneling temperature factor
    double pin_is_eff_ = 1e-23;     ///< thermally activated diode current
};

} // namespace tfetsram::device
