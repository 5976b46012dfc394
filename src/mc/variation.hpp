#pragma once
// Process-variation modeling (Sec. 4.3). Following the paper, only the
// TFET gate-insulator thickness varies: channel-length variation has
// negligible TFET impact [13] and random dopant fluctuation is suppressed
// by the nearly intrinsic channel. Thickness is "controlled to within 5 %"
// [13], modeled as a truncated Gaussian (3 sigma = bound).

#include "device/models.hpp"
#include "util/rng.hpp"

namespace tfetsram::mc {

struct VariationSpec {
    device::TfetParams base;        ///< nominal TFET
    double tox_bound_frac = 0.05;   ///< hard +/- bound as fraction of nominal
    double tox_sigma_frac = 0.05 / 3.0; ///< Gaussian sigma as fraction
    bool tabulated = true;          ///< re-extract lookup tables per sample
    device::TableSpec table_spec;   ///< extraction grid when tabulated
};

/// Draws per-sample model sets with perturbed TFET oxide thickness. The
/// MOSFET baseline is left at nominal (the paper varies only the TFETs).
///
/// A draw is two steps: pick the thickness (sample_tox / tox_at — cheap,
/// and the only step that touches the RNG), then build the model set at
/// it (draw_at_tox — the per-draw table extraction). The Monte-Carlo
/// engines draw every thickness up front and build each draw inside the
/// worker that evaluates it.
class TfetVariationSampler {
public:
    explicit TfetVariationSampler(const VariationSpec& spec);

    /// One Monte-Carlo draw.
    struct Draw {
        device::ModelSet models;
        double tox; ///< sampled thickness [m]
    };
    /// sample_tox(rng) then draw_at_tox: one truncated-Gaussian draw.
    [[nodiscard]] Draw sample(Rng& rng) const;

    /// The thickness of a sample(): consumes `rng` exactly as sample()
    /// does.
    [[nodiscard]] double sample_tox(Rng& rng) const;

    /// Deterministic draw at a given standardized deviation u:
    /// draw_at_tox(tox_at(u)).
    [[nodiscard]] Draw sample_at(double u) const;

    /// The thickness of sample_at(u): nominal * (1 + tox_sigma_frac * u),
    /// deliberately NOT truncated at the +/- bound — the importance-
    /// sampling yield estimator owns the sampling density and must reach
    /// tails the truncated Monte-Carlo draw assigns zero mass. tox is
    /// floored at 5 % of nominal so a pathological |u| cannot build a
    /// non-physical device.
    [[nodiscard]] double tox_at(double u) const;

    /// The model set at thickness `tox` (tables re-extracted when the
    /// spec is tabulated). Thread-safe: the sampler is immutable.
    [[nodiscard]] Draw draw_at_tox(double tox) const;

    [[nodiscard]] const VariationSpec& spec() const { return spec_; }

private:
    VariationSpec spec_;
    device::ModelSet nominal_mosfets_;
};

} // namespace tfetsram::mc
