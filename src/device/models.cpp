#include "device/models.hpp"

#include "device/table_builder.hpp"

namespace tfetsram::device {

MirrorModel::MirrorModel(spice::TransistorModelPtr inner, std::string name)
    : inner_(std::move(inner)), name_(std::move(name)) {
    TFET_EXPECTS(inner_ != nullptr);
}

spice::IvSample MirrorModel::iv(double vgs, double vds) const {
    const spice::IvSample m = inner_->iv(-vgs, -vds);
    // I_p(vgs,vds) = -I_n(-vgs,-vds):
    //   dI_p/dvgs = -dI_n/dvgs_n * (-1) = +gm_n, and likewise for gds.
    return {-m.ids, m.gm, m.gds};
}

spice::CvSample MirrorModel::cv(double vgs, double vds) const {
    return inner_->cv(-vgs, -vds);
}

void MirrorModel::iv_many(const double* vgs, const double* vds, std::size_t n,
                          spice::IvSample* out) const {
    thread_local std::vector<double> neg_vgs;
    thread_local std::vector<double> neg_vds;
    if (neg_vgs.size() < n) {
        neg_vgs.resize(n);
        neg_vds.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        neg_vgs[i] = -vgs[i];
        neg_vds[i] = -vds[i];
    }
    inner_->iv_many(neg_vgs.data(), neg_vds.data(), n, out);
    // Same transform as the scalar iv(): current negates, derivatives keep
    // their sign (two chain-rule negations cancel).
    for (std::size_t i = 0; i < n; ++i)
        out[i].ids = -out[i].ids;
}

void MirrorModel::sample_grid(std::span<const double> vgs,
                              std::span<const double> vds,
                              const spice::GridRowFn& row) const {
    std::vector<double> neg_vgs(vgs.size());
    std::vector<double> neg_vds(vds.size());
    for (std::size_t i = 0; i < vgs.size(); ++i)
        neg_vgs[i] = -vgs[i];
    for (std::size_t i = 0; i < vds.size(); ++i)
        neg_vds[i] = -vds[i];
    inner_->sample_grid(
        neg_vgs, neg_vds,
        [&row](std::size_t iy, std::span<spice::IvSample> iv,
               std::span<spice::CvSample> cv) {
            // The scalar iv()'s transform; C-V passes through as cv() does.
            for (spice::IvSample& s : iv)
                s.ids = -s.ids;
            row(iy, iv, cv);
        });
}

spice::TransistorModelPtr make_ntfet(const TfetParams& params) {
    return std::make_shared<TfetModel>(params);
}

spice::TransistorModelPtr make_ptfet(const TfetParams& params) {
    return std::make_shared<MirrorModel>(make_ntfet(params), "pTFET");
}

spice::TransistorModelPtr make_nmos(const MosfetParams& params) {
    return std::make_shared<MosfetModel>(params);
}

MosfetParams pmos_defaults() {
    MosfetParams p;
    p.i_spec = 1.0e-5; // hole mobility deficit vs. the 2e-5 nMOS default
    return p;
}

spice::TransistorModelPtr make_pmos(const MosfetParams& params) {
    return std::make_shared<MirrorModel>(
        std::make_shared<MosfetModel>(params), "pMOS");
}

ModelSet make_model_set(const TfetParams& tfet_params, bool tabulated,
                        const TableSpec& spec) {
    ModelSet set;
    set.ntfet = make_ntfet(tfet_params);
    set.ptfet = make_ptfet(tfet_params);
    if (tabulated) {
        set.ntfet = build_table(*set.ntfet, spec);
        set.ptfet = build_table(*set.ptfet, spec);
    }
    set.nmos = make_nmos();
    set.pmos = make_pmos();
    return set;
}

} // namespace tfetsram::device
