#include "sram/cell.hpp"

#include <stdexcept>

#include "sram/cell_spec.hpp"

namespace tfetsram::sram {

bool access_is_ptype(AccessDevice access) {
    return access == AccessDevice::kInwardP || access == AccessDevice::kOutwardP;
}

const char* to_string(AccessDevice access) {
    switch (access) {
    case AccessDevice::kOutwardN:
        return "outward nTFET";
    case AccessDevice::kOutwardP:
        return "outward pTFET";
    case AccessDevice::kInwardN:
        return "inward nTFET";
    case AccessDevice::kInwardP:
        return "inward pTFET";
    case AccessDevice::kCmos:
        return "nMOS";
    }
    return "?";
}

const char* to_string(CellKind kind) {
    // Names come from the spec registry (static storage, so the returned
    // pointer stays valid) — the registry is the single naming authority.
    return builtin_spec(kind).display_name.c_str();
}

double SramCell::wl_active_level() const {
    return wordline_active_low(spec_of(*this), config.access) ? 0.0
                                                              : config.vdd;
}

double SramCell::wl_inactive_level() const {
    return wordline_active_low(spec_of(*this), config.access) ? config.vdd
                                                              : 0.0;
}

void expect_6t(const CellConfig& config) {
    TFET_EXPECTS(config.kind == CellKind::kCmos6T ||
                 config.kind == CellKind::kTfet6T);
}

void build_6t_devices(spice::Circuit& ckt, const CellConfig& config,
                      const CellPorts& p, const std::string& prefix) {
    expect_6t(config);
    const bool tfet = config.kind == CellKind::kTfet6T;
    const auto& n_model = tfet ? config.models.ntfet : config.models.nmos;
    const auto& p_model = tfet ? config.models.ptfet : config.models.pmos;
    const double w_pd = config.beta * config.w_access;
    const double w_ax = config.w_access;
    const device::ModelSet& m = config.models;

    ckt.add_transistor(prefix + "PDL", n_model, p.q, p.qb, p.vss, w_pd);
    ckt.add_transistor(prefix + "PUL", p_model, p.q, p.qb, p.vdd,
                       config.w_pullup);
    ckt.add_transistor(prefix + "PDR", n_model, p.qb, p.q, p.vss, w_pd);
    ckt.add_transistor(prefix + "PUR", p_model, p.qb, p.q, p.vdd,
                       config.w_pullup);

    auto access = [&](const std::string& label, spice::NodeId bitline,
                      spice::NodeId store) -> spice::Transistor& {
        switch (tfet ? config.access : AccessDevice::kCmos) {
        case AccessDevice::kInwardN:
            return ckt.add_transistor(label, m.ntfet, bitline, p.wl, store, w_ax);
        case AccessDevice::kInwardP:
            return ckt.add_transistor(label, m.ptfet, store, p.wl, bitline, w_ax);
        case AccessDevice::kOutwardN:
            return ckt.add_transistor(label, m.ntfet, store, p.wl, bitline, w_ax);
        case AccessDevice::kOutwardP:
            return ckt.add_transistor(label, m.ptfet, bitline, p.wl, store, w_ax);
        case AccessDevice::kCmos:
            return ckt.add_transistor(label, m.nmos, bitline, p.wl, store, w_ax);
        }
        throw std::invalid_argument("build_6t_devices: bad access device");
    };
    access(prefix + "AXL", p.bl, p.q);
    access(prefix + "AXR", p.blb, p.qb);

    ckt.add_capacitor(prefix + "Cq", p.q, spice::kGround, config.c_node);
    ckt.add_capacitor(prefix + "Cqb", p.qb, spice::kGround, config.c_node);
}

SramCell build_cell(const CellConfig& config, const spice::SimContext* sim) {
    const CellSpec* spec =
        config.spec != nullptr ? config.spec : &builtin_spec(config.kind);
    return instantiate_spec(*spec, config, sim);
}

} // namespace tfetsram::sram
