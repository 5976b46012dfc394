// Differential oracle for separable table extraction: build_table makes
// one TransistorModel::sample_grid call, which TfetModel answers per axis
// (kernel and C-V channel term per vgs node, output factor, p-i-n diode
// and C-V saturation term per vds row) and MirrorModel answers by
// negating both axes around its inner model. The extracted tables must
// be bitwise identical to the ones the scalar iv()/cv() loop builds, at
// every thickness the Monte-Carlo engines can draw, off-nominal
// temperature, and a grid whose mirrored axes are not its own nodes.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "device/models.hpp"
#include "device/table_builder.hpp"
#include "mc/variation.hpp"

namespace tfetsram::device {
namespace {

/// Forwards iv()/cv() only, so build_table takes the base class's scalar
/// sample_grid loop — the extraction path every model had before the
/// per-axis overrides.
class ScalarPath final : public spice::TransistorModel {
public:
    explicit ScalarPath(const spice::TransistorModel& inner) : inner_(inner) {}
    [[nodiscard]] spice::IvSample iv(double vgs, double vds) const override {
        return inner_.iv(vgs, vds);
    }
    [[nodiscard]] spice::CvSample cv(double vgs, double vds) const override {
        return inner_.cv(vgs, vds);
    }
    [[nodiscard]] const char* name() const override { return inner_.name(); }

private:
    const spice::TransistorModel& inner_;
};

/// Number of grid nodes whose bytes differ.
std::size_t bitwise_mismatches(const Grid2d& a, const Grid2d& b) {
    EXPECT_EQ(a.nx(), b.nx());
    EXPECT_EQ(a.ny(), b.ny());
    std::size_t bad = 0;
    for (std::size_t iy = 0; iy < a.ny(); ++iy)
        for (std::size_t ix = 0; ix < a.nx(); ++ix) {
            const double va = a.at(ix, iy);
            const double vb = b.at(ix, iy);
            if (std::memcmp(&va, &vb, sizeof va) != 0)
                ++bad;
        }
    return bad;
}

void expect_identical_grids(const DeviceTable& a, const DeviceTable& b,
                            const std::string& what) {
    EXPECT_EQ(bitwise_mismatches(a.t_grid(), b.t_grid()), 0u) << what;
    EXPECT_EQ(bitwise_mismatches(a.cgs_grid(), b.cgs_grid()), 0u) << what;
    EXPECT_EQ(bitwise_mismatches(a.cgd_grid(), b.cgd_grid()), 0u) << what;
    EXPECT_STREQ(a.name(), b.name()) << what;
}

/// Separable vs scalar extraction of `model`: all three grids bitwise.
void expect_identical_tables(const spice::TransistorModel& model,
                             const TableSpec& spec, const std::string& what) {
    expect_identical_grids(*build_table(model, spec),
                           *build_table(ScalarPath(model), spec), what);
}

void expect_identical_pair(const TfetParams& p, const TableSpec& spec,
                           const std::string& what) {
    expect_identical_tables(*make_ntfet(p), spec, "nTFET " + what);
    expect_identical_tables(*make_ptfet(p), spec, "pTFET " + what);
}

TEST(ExtractionDiff, McThicknessesBitwiseIdentical) {
    const mc::TfetVariationSampler sampler(mc::VariationSpec{});
    const TfetParams base = sampler.spec().base;
    const double nom = base.tox_nom;
    const double bound = sampler.spec().tox_bound_frac;
    const std::vector<std::pair<std::string, double>> cases = {
        {"nominal", nom},
        {"-5% bound", nom * (1.0 - bound)},
        {"+5% bound", nom * (1.0 + bound)},
        {"sample_at(-8)", sampler.tox_at(-8.0)},
        {"sample_at(+8)", sampler.tox_at(8.0)},
        {"5% floor", sampler.tox_at(-1e3)},
    };
    EXPECT_EQ(sampler.tox_at(-1e3), 0.05 * nom);
    for (const auto& [what, tox] : cases) {
        TfetParams p = base;
        p.tox = tox;
        expect_identical_pair(p, TableSpec{}, what);
    }
}

TEST(ExtractionDiff, DrawAtToxMatchesScalarExtraction) {
    // The sampler's own draw path (what every Monte-Carlo lane runs).
    mc::VariationSpec vspec;
    vspec.table_spec.points = 61;
    const mc::TfetVariationSampler sampler(vspec);
    const double tox = sampler.tox_at(2.5);
    const mc::TfetVariationSampler::Draw draw = sampler.draw_at_tox(tox);
    EXPECT_EQ(draw.tox, tox);
    TfetParams p = vspec.base;
    p.tox = tox;
    expect_identical_grids(
        dynamic_cast<const DeviceTable&>(*draw.models.ntfet),
        *build_table(ScalarPath(*make_ntfet(p)), vspec.table_spec), "nTFET");
    expect_identical_grids(
        dynamic_cast<const DeviceTable&>(*draw.models.ptfet),
        *build_table(ScalarPath(*make_ptfet(p)), vspec.table_spec), "pTFET");
}

TEST(ExtractionDiff, OffNominalTemperatureBitwiseIdentical) {
    // Away from 300 K the p-i-n scale current is thermally activated
    // (pin_is_eff != pin_is) and the kernel picks up its temperature
    // factor — both enter the per-axis terms.
    for (double kelvin : {250.0, 375.0}) {
        TfetParams p;
        p.temperature = kelvin;
        expect_identical_pair(p, TableSpec{},
                              std::to_string(kelvin) + " K");
    }
}

TEST(ExtractionDiff, AsymmetricCoarseGridBitwiseIdentical) {
    // 33 points over [-1.2, 1.4]: the mirror's negated axes are not nodes
    // of the grid itself, and vds = 0 is off-grid.
    TableSpec spec;
    spec.points = 33;
    spec.v_min = -1.2;
    spec.v_max = 1.4;
    TfetParams p;
    p.tox = 1.93e-9;
    expect_identical_pair(p, spec, "asymmetric 33-point grid");
}

TEST(ExtractionDiff, MirroredScalarModelsKeepTheDefaultLoop) {
    // A mirror around a model without a per-axis override (the MOSFET)
    // runs the inner default loop on negated axes — still bitwise the
    // scalar mirror.
    TableSpec spec;
    spec.points = 45;
    spec.v_min = -1.0;
    spec.v_max = 1.3;
    expect_identical_tables(*make_pmos(), spec, "pMOS");
    expect_identical_tables(*make_nmos(), spec, "nMOS");
}

TEST(ExtractionDiff, GridRowsArriveInOrderWithScalarSamples) {
    // The sweep itself, not only the tables: rows in order, every sample
    // bitwise the scalar entry points.
    const auto model = make_ptfet();
    const std::vector<double> vgs = {-1.1, -0.3, 0.0, 0.25, 0.9};
    const std::vector<double> vds = {-0.7, -1e-12, 0.0, 0.05, 1.2};
    std::size_t next_row = 0;
    model->sample_grid(
        vgs, vds,
        [&](std::size_t iy, std::span<spice::IvSample> iv,
            std::span<spice::CvSample> cv) {
            EXPECT_EQ(iy, next_row++);
            ASSERT_EQ(iv.size(), vgs.size());
            ASSERT_EQ(cv.size(), vgs.size());
            for (std::size_t ix = 0; ix < vgs.size(); ++ix) {
                const spice::IvSample s = model->iv(vgs[ix], vds[iy]);
                const spice::CvSample c = model->cv(vgs[ix], vds[iy]);
                EXPECT_EQ(std::memcmp(&iv[ix], &s, sizeof s), 0)
                    << ix << "," << iy;
                EXPECT_EQ(std::memcmp(&cv[ix], &c, sizeof c), 0)
                    << ix << "," << iy;
            }
        });
    EXPECT_EQ(next_row, vds.size());
}

} // namespace
} // namespace tfetsram::device
