#include "sram/cell_spec.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "netlist/netlist.hpp"
#include "spice/elements.hpp"

namespace tfetsram::sram {

namespace {

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    return s;
}

// ---- Spec-building shorthand -------------------------------------------

constexpr WidthExpr kPullDownW{WidthExpr::Base::kPullDown, 1.0};
constexpr WidthExpr kPullUpW{WidthExpr::Base::kPullUp, 1.0};
constexpr WidthExpr kAccessW{WidthExpr::Base::kAccess, 1.0};

SpecElement node_el(std::string name) {
    SpecElement el;
    el.kind = SpecElement::Kind::kNode;
    el.a = std::move(name);
    return el;
}

SpecElement rail(std::string label, std::string node, double frac) {
    SpecElement el;
    el.kind = SpecElement::Kind::kRail;
    el.label = std::move(label);
    el.a = std::move(node);
    el.level_frac = frac;
    return el;
}

SpecElement bitline(std::string name, double frac) {
    SpecElement el;
    el.kind = SpecElement::Kind::kBitline;
    el.a = std::move(name);
    el.level_frac = frac;
    return el;
}

SpecElement wordline(std::string label, std::string node) {
    SpecElement el;
    el.kind = SpecElement::Kind::kWordline;
    el.label = std::move(label);
    el.a = std::move(node);
    return el;
}

SpecElement read_wordline(std::string label, std::string node) {
    SpecElement el;
    el.kind = SpecElement::Kind::kReadWordline;
    el.label = std::move(label);
    el.a = std::move(node);
    return el;
}

SpecElement transistor(std::string label, ModelSlot slot, std::string d,
                       std::string g, std::string s, WidthExpr w) {
    SpecElement el;
    el.kind = SpecElement::Kind::kTransistor;
    el.label = std::move(label);
    el.slot = slot;
    el.a = std::move(d);
    el.b = std::move(g);
    el.c = std::move(s);
    el.width = w;
    return el;
}

SpecElement access_el(std::string label, std::string bl_node,
                      std::string store,
                      std::optional<AccessDevice> orientation,
                      WidthExpr w = kAccessW) {
    SpecElement el;
    el.kind = SpecElement::Kind::kAccess;
    el.label = std::move(label);
    el.a = std::move(bl_node);
    el.b = std::move(store);
    el.orientation = orientation;
    el.width = w;
    return el;
}

SpecElement cap_node(std::string label, std::string node) {
    SpecElement el;
    el.kind = SpecElement::Kind::kCapacitor;
    el.label = std::move(label);
    el.a = std::move(node);
    el.cap_kind = SpecElement::CapKind::kNode;
    return el;
}

SpecElement resistor(std::string label, std::string a, std::string b,
                     double ohms) {
    SpecElement el;
    el.kind = SpecElement::Kind::kResistor;
    el.label = std::move(label);
    el.a = std::move(a);
    el.b = std::move(b);
    el.value = ohms;
    return el;
}

void core_ports(CellSpec& spec) {
    spec.nodes = {"q", "qb", "bl", "blb", "wl", "vdd", "vss"};
    spec.declared_ports = spec.nodes;
}

void add_read_port_ports(CellSpec& spec) {
    spec.port_rbl = "rbl";
    spec.port_rwl = "rwl";
    spec.declared_ports.push_back("rbl");
    spec.declared_ports.push_back("rwl");
}

/// The cross-coupled inverter pair + storage caps, as spec elements (the
/// emission order of the legacy build_core / build_6t_devices helpers).
void append_core(CellSpec& spec) {
    spec.elements.push_back(
        transistor("PDL", ModelSlot::kCoreN, "q", "qb", "vss", kPullDownW));
    spec.elements.push_back(
        transistor("PUL", ModelSlot::kCoreP, "q", "qb", "vdd", kPullUpW));
    spec.elements.push_back(
        transistor("PDR", ModelSlot::kCoreN, "qb", "q", "vss", kPullDownW));
    spec.elements.push_back(
        transistor("PUR", ModelSlot::kCoreP, "qb", "q", "vdd", kPullUpW));
}

void append_rails_and_bitlines(CellSpec& spec, double bl_frac) {
    spec.elements.push_back(rail("Vvdd", "vdd", 1.0));
    spec.elements.push_back(rail("Vvss", "vss", 0.0));
    spec.elements.push_back(bitline("bl", bl_frac));
    spec.elements.push_back(bitline("blb", bl_frac));
}

// ---- The built-in zoo ---------------------------------------------------

/// 6T (CMOS or TFET): the legacy build_6t_devices emission order — WL
/// source, core pair, access pair, storage caps.
CellSpec make_6t_spec(bool cmos) {
    CellSpec spec;
    spec.id = cmos ? "cmos6t" : "tfet6t";
    spec.display_name = cmos ? "6T CMOS SRAM" : "6T TFET SRAM";
    spec.kind = cmos ? CellKind::kCmos6T : CellKind::kTfet6T;
    spec.read_style = ReadStyle::kDifferential;
    spec.tfet_core = !cmos;
    spec.wl_follows_access = !cmos;
    core_ports(spec);
    append_rails_and_bitlines(spec, 1.0);
    spec.elements.push_back(wordline("Vwl", "wl"));
    append_core(spec);
    const std::optional<AccessDevice> orientation =
        cmos ? std::optional<AccessDevice>(AccessDevice::kCmos)
             : std::nullopt;
    spec.elements.push_back(access_el("AXL", "bl", "q", orientation));
    spec.elements.push_back(access_el("AXR", "blb", "qb", orientation));
    spec.elements.push_back(cap_node("Cq", "q"));
    spec.elements.push_back(cap_node("Cqb", "qb"));
    return spec;
}

/// 7T [14]: 6T core + outward-nTFET write access on low-clamped write
/// bitlines + single-transistor read buffer whose source is RWL
/// (active-low: RWL = 0 lets qb discharge RBL).
CellSpec make_7t_spec() {
    CellSpec spec;
    spec.id = "tfet7t";
    spec.display_name = "7T TFET SRAM";
    spec.kind = CellKind::kTfet7T;
    spec.read_style = ReadStyle::kReadPort;
    spec.bl_hold_frac = 0.0;
    spec.rwl_active_frac = 0.0;
    core_ports(spec);
    add_read_port_ports(spec);
    append_rails_and_bitlines(spec, 0.0);
    append_core(spec);
    spec.elements.push_back(cap_node("Cq", "q"));
    spec.elements.push_back(cap_node("Cqb", "qb"));
    spec.elements.push_back(wordline("Vwl", "wl"));
    spec.elements.push_back(
        access_el("AXL", "bl", "q", AccessDevice::kOutwardN));
    spec.elements.push_back(
        access_el("AXR", "blb", "qb", AccessDevice::kOutwardN));
    spec.elements.push_back(node_el("rbl"));
    spec.elements.push_back(node_el("rwl"));
    spec.elements.push_back(read_wordline("Vrwl", "rwl"));
    spec.elements.push_back(bitline("rbl", 1.0));
    spec.elements.push_back(
        transistor("M7", ModelSlot::kNTfet, "rbl", "qb", "rwl", kAccessW));
    return spec;
}

/// Asymmetric 6T [15]: one outward + one inward nTFET access device;
/// single-sided write-0 with the built-in GND-raising assist, read through
/// the inward device on BLB.
CellSpec make_asym6t_spec() {
    CellSpec spec;
    spec.id = "asym6t";
    spec.display_name = "asymmetric 6T TFET SRAM";
    spec.kind = CellKind::kTfetAsym6T;
    spec.read_style = ReadStyle::kSingleSidedBlb;
    spec.single_sided_write = true;
    spec.preferred_write = false;
    spec.implicit_write_assist = Assist::kWaGndRaising;
    spec.wlcrit_defined = false;
    core_ports(spec);
    append_rails_and_bitlines(spec, 1.0);
    append_core(spec);
    spec.elements.push_back(cap_node("Cq", "q"));
    spec.elements.push_back(cap_node("Cqb", "qb"));
    spec.elements.push_back(wordline("Vwl", "wl"));
    spec.elements.push_back(
        access_el("AXL", "bl", "q", AccessDevice::kOutwardN));
    spec.elements.push_back(
        access_el("AXR", "blb", "qb", AccessDevice::kInwardN));
    return spec;
}

/// 8T with decoupled read port: the 7T write scheme (outward nTFET access,
/// write bitlines clamped low during hold) plus the classic two-transistor
/// read stack RBL -> MRAX(g=RWL) -> rint -> MRPD(g=QB) -> VSS, asserted
/// with RWL high. The read stack is sized up (1.5x access width) so RBL
/// discharges through two stacked devices within the sense window; the
/// bleeder keeps the stack's internal node DC-defined when both devices
/// are off.
CellSpec make_8t_spec() {
    CellSpec spec;
    spec.id = "tfet8t";
    spec.display_name = "8T TFET SRAM (decoupled read port)";
    spec.kind = CellKind::kTfet7T;
    spec.read_style = ReadStyle::kReadPort;
    spec.bl_hold_frac = 0.0;
    spec.rwl_active_frac = 1.0;
    core_ports(spec);
    add_read_port_ports(spec);
    append_rails_and_bitlines(spec, 0.0);
    append_core(spec);
    spec.elements.push_back(cap_node("Cq", "q"));
    spec.elements.push_back(cap_node("Cqb", "qb"));
    spec.elements.push_back(wordline("Vwl", "wl"));
    spec.elements.push_back(
        access_el("AXL", "bl", "q", AccessDevice::kOutwardN));
    spec.elements.push_back(
        access_el("AXR", "blb", "qb", AccessDevice::kOutwardN));
    const WidthExpr read_w{WidthExpr::Base::kAccess, 1.5};
    spec.elements.push_back(node_el("rint"));
    spec.elements.push_back(node_el("rbl"));
    spec.elements.push_back(node_el("rwl"));
    spec.elements.push_back(read_wordline("Vrwl", "rwl"));
    spec.elements.push_back(bitline("rbl", 1.0));
    spec.elements.push_back(
        transistor("MRPD", ModelSlot::kNTfet, "rint", "qb", "vss", read_w));
    spec.elements.push_back(
        transistor("MRAX", ModelSlot::kNTfet, "rbl", "rwl", "rint", read_w));
    spec.elements.push_back(cap_node("Crint", "rint"));
    spec.elements.push_back(resistor("Rrint", "rint", "vss", 1e12));
    return spec;
}

/// 9T near-threshold cell (Pasandi & Fakhraie style): the 8T write scheme
/// with a three-transistor read stack — an RWL-gated footer under the read
/// pull-down cuts the stack's sneak leakage for large cells-per-bitline
/// counts at near-threshold supplies.
CellSpec make_9t_spec() {
    CellSpec spec;
    spec.id = "tfet9t";
    spec.display_name = "9T near-threshold TFET SRAM";
    spec.kind = CellKind::kTfet7T;
    spec.read_style = ReadStyle::kReadPort;
    spec.bl_hold_frac = 0.0;
    spec.rwl_active_frac = 1.0;
    core_ports(spec);
    add_read_port_ports(spec);
    append_rails_and_bitlines(spec, 0.0);
    append_core(spec);
    spec.elements.push_back(cap_node("Cq", "q"));
    spec.elements.push_back(cap_node("Cqb", "qb"));
    spec.elements.push_back(wordline("Vwl", "wl"));
    spec.elements.push_back(
        access_el("AXL", "bl", "q", AccessDevice::kOutwardN));
    spec.elements.push_back(
        access_el("AXR", "blb", "qb", AccessDevice::kOutwardN));
    const WidthExpr read_w{WidthExpr::Base::kAccess, 1.5};
    spec.elements.push_back(node_el("rint"));
    spec.elements.push_back(node_el("rfoot"));
    spec.elements.push_back(node_el("rbl"));
    spec.elements.push_back(node_el("rwl"));
    spec.elements.push_back(read_wordline("Vrwl", "rwl"));
    spec.elements.push_back(bitline("rbl", 1.0));
    spec.elements.push_back(
        transistor("MRPD", ModelSlot::kNTfet, "rint", "qb", "rfoot", read_w));
    spec.elements.push_back(
        transistor("MRAX", ModelSlot::kNTfet, "rbl", "rwl", "rint", read_w));
    spec.elements.push_back(
        transistor("MRFT", ModelSlot::kNTfet, "rfoot", "rwl", "vss", read_w));
    spec.elements.push_back(cap_node("Crint", "rint"));
    spec.elements.push_back(cap_node("Crfoot", "rfoot"));
    spec.elements.push_back(resistor("Rrint", "rint", "vss", 1e12));
    spec.elements.push_back(resistor("Rrfoot", "rfoot", "vss", 1e12));
    return spec;
}

// ---- Instantiation ------------------------------------------------------

bool slot_is_tfet(ModelSlot slot, bool tfet_core) {
    switch (slot) {
    case ModelSlot::kCoreN:
    case ModelSlot::kCoreP:
        return tfet_core;
    case ModelSlot::kNTfet:
    case ModelSlot::kPTfet:
        return true;
    case ModelSlot::kNMos:
    case ModelSlot::kPMos:
        return false;
    }
    return false;
}

const spice::TransistorModelPtr& resolve_slot(ModelSlot slot,
                                              const device::ModelSet& m,
                                              bool tfet_core) {
    switch (slot) {
    case ModelSlot::kCoreN:
        return tfet_core ? m.ntfet : m.nmos;
    case ModelSlot::kCoreP:
        return tfet_core ? m.ptfet : m.pmos;
    case ModelSlot::kNTfet:
        return m.ntfet;
    case ModelSlot::kPTfet:
        return m.ptfet;
    case ModelSlot::kNMos:
        return m.nmos;
    case ModelSlot::kPMos:
        return m.pmos;
    }
    throw std::invalid_argument("resolve_slot: bad model slot");
}

bool spec_needs_tfets(const CellSpec& spec, const CellConfig& config) {
    if (spec.tfet_core)
        return true;
    for (const SpecElement& el : spec.elements) {
        if (el.kind == SpecElement::Kind::kTransistor &&
            slot_is_tfet(el.slot, spec.tfet_core))
            return true;
        if (el.kind == SpecElement::Kind::kAccess &&
            el.orientation.value_or(config.access) != AccessDevice::kCmos)
            return true;
    }
    return false;
}

/// Bind the v_*/sw_* handles of a deck-built cell by the conventional
/// source labels (case-insensitive): Vvdd/Vvss/Vbl/Vblb/Vwl/Vrbl/Vrwl and
/// SWbl/SWblb/SWrbl. Handles without a matching element stay null (the
/// operation programmer skips them).
void bind_deck_handles(SramCell& cell) {
    for (spice::VoltageSource* v : cell.circuit.voltage_sources()) {
        const std::string name = lower(v->label());
        if (name == "vvdd")
            cell.v_vdd = v;
        else if (name == "vvss")
            cell.v_vss = v;
        else if (name == "vbl")
            cell.v_bl = v;
        else if (name == "vblb")
            cell.v_blb = v;
        else if (name == "vwl")
            cell.v_wl = v;
        else if (name == "vrbl")
            cell.v_rbl = v;
        else if (name == "vrwl")
            cell.v_rwl = v;
    }
    for (const auto& d : cell.circuit.devices()) {
        auto* sw = dynamic_cast<spice::TimedSwitch*>(d.get());
        if (sw == nullptr)
            continue;
        const std::string name = lower(sw->label());
        if (name == "swbl")
            cell.sw_bl = sw;
        else if (name == "swblb")
            cell.sw_blb = sw;
        else if (name == "swrbl")
            cell.sw_rbl = sw;
    }
}

spice::NodeId port_node(const spice::Circuit& ckt, const std::string& name) {
    return name.empty() ? spice::kGround : ckt.node(name);
}

} // namespace

double WidthExpr::resolve(const CellConfig& config) const {
    switch (base) {
    case Base::kPullDown:
        return scale * config.beta * config.w_access;
    case Base::kAccess:
        return scale * config.w_access;
    case Base::kPullUp:
        return scale * config.w_pullup;
    case Base::kLiteral:
        return scale;
    }
    throw std::invalid_argument("WidthExpr: bad base");
}

const std::vector<CellSpec>& builtin_specs() {
    static const std::vector<CellSpec> specs = [] {
        std::vector<CellSpec> s;
        s.push_back(make_6t_spec(/*cmos=*/true));
        s.push_back(make_6t_spec(/*cmos=*/false));
        s.push_back(make_7t_spec());
        s.push_back(make_asym6t_spec());
        s.push_back(make_8t_spec());
        s.push_back(make_9t_spec());
        return s;
    }();
    return specs;
}

const CellSpec& builtin_spec(CellKind kind) {
    switch (kind) {
    case CellKind::kCmos6T:
        return find_spec("cmos6t");
    case CellKind::kTfet6T:
        return find_spec("tfet6t");
    case CellKind::kTfet7T:
        return find_spec("tfet7t");
    case CellKind::kTfetAsym6T:
        return find_spec("asym6t");
    }
    throw std::invalid_argument("builtin_spec: bad cell kind");
}

const CellSpec& find_spec(const std::string& id) {
    for (const CellSpec& spec : builtin_specs())
        if (spec.id == id)
            return spec;
    throw std::invalid_argument("find_spec: unknown cell spec '" + id + "'");
}

const CellSpec& spec_of(const CellConfig& config) {
    return config.spec != nullptr ? *config.spec : builtin_spec(config.kind);
}

const CellSpec& spec_of(const SramCell& cell) { return spec_of(cell.config); }

bool wordline_active_low(const CellSpec& spec, AccessDevice access) {
    return spec.wl_follows_access && access_is_ptype(access);
}

SramCell instantiate_spec(const CellSpec& spec, const CellConfig& config,
                          const spice::SimContext* sim) {
    TFET_EXPECTS(config.vdd > 0.0);
    TFET_EXPECTS(config.beta > 0.0 && config.w_access > 0.0);

    SramCell cell;
    cell.config = config;
    cell.config.spec = &spec;
    cell.config.kind = spec.kind;
    cell.sim = sim;
    spice::Circuit& ckt = cell.circuit;

    if (spec.deck != nullptr) {
        // Deck-backed spec: the netlist (including its .model cards) is the
        // whole topology; config.models is not consulted.
        cell.circuit = spec.deck->build();
        cell.q = port_node(ckt, spec.port_q);
        cell.qb = port_node(ckt, spec.port_qb);
        cell.bl = port_node(ckt, spec.port_bl);
        cell.blb = port_node(ckt, spec.port_blb);
        cell.wl = port_node(ckt, spec.port_wl);
        cell.vdd = port_node(ckt, spec.port_vdd);
        cell.vss = port_node(ckt, spec.port_vss);
        cell.rbl = port_node(ckt, spec.port_rbl);
        cell.rwl = port_node(ckt, spec.port_rwl);
        bind_deck_handles(cell);
        // The deck's .nodeset directives seed the first cold DC solve —
        // the same state-selection mechanism the standalone deck flow uses.
        cell.dc_seed = spec.deck->initial_guess(cell.circuit);
        return cell;
    }

    TFET_EXPECTS(config.models.nmos && config.models.pmos);
    if (spec_needs_tfets(spec, config))
        TFET_EXPECTS(config.models.ntfet && config.models.ptfet);
    const device::ModelSet& m = cell.config.models;

    for (const std::string& name : spec.nodes)
        ckt.add_node(name);

    for (const SpecElement& el : spec.elements) {
        switch (el.kind) {
        case SpecElement::Kind::kNode:
            ckt.add_node(el.a);
            break;
        case SpecElement::Kind::kRail: {
            auto& src = ckt.add_vsource(
                el.label, ckt.node(el.a), spice::kGround,
                spice::Waveform::dc(el.level_frac * config.vdd));
            if (el.a == spec.port_vdd)
                cell.v_vdd = &src;
            else if (el.a == spec.port_vss)
                cell.v_vss = &src;
            break;
        }
        case SpecElement::Kind::kBitline: {
            const std::string& name = el.a;
            const spice::NodeId line = ckt.node(name);
            const spice::NodeId drv = ckt.add_node(name + "_drv");
            auto& src = ckt.add_vsource(
                "V" + name, drv, spice::kGround,
                spice::Waveform::dc(el.level_frac * config.vdd));
            auto& sw =
                ckt.add_switch("SW" + name, drv, line, config.r_precharge,
                               1e12, spice::Waveform::dc(1.0));
            ckt.add_capacitor("C" + name, line, spice::kGround,
                              config.c_bitline);
            if (name == spec.port_bl) {
                cell.v_bl = &src;
                cell.sw_bl = &sw;
            } else if (name == spec.port_blb) {
                cell.v_blb = &src;
                cell.sw_blb = &sw;
            } else if (name == spec.port_rbl) {
                cell.v_rbl = &src;
                cell.sw_rbl = &sw;
            }
            break;
        }
        case SpecElement::Kind::kWordline: {
            auto& src = ckt.add_vsource(
                el.label, ckt.node(el.a), spice::kGround,
                spice::Waveform::dc(
                    wordline_active_low(spec, config.access) ? config.vdd
                                                             : 0.0));
            if (el.a == spec.port_wl)
                cell.v_wl = &src;
            break;
        }
        case SpecElement::Kind::kReadWordline: {
            auto& src = ckt.add_vsource(
                el.label, ckt.node(el.a), spice::kGround,
                spice::Waveform::dc((1.0 - spec.rwl_active_frac) *
                                    config.vdd));
            if (el.a == spec.port_rwl)
                cell.v_rwl = &src;
            break;
        }
        case SpecElement::Kind::kTransistor: {
            ckt.add_transistor(
                el.label, resolve_slot(el.slot, m, spec.tfet_core),
                ckt.node(el.a), ckt.node(el.b), ckt.node(el.c),
                el.width.resolve(config));
            break;
        }
        case SpecElement::Kind::kAccess: {
            const AccessDevice orientation =
                el.orientation.value_or(config.access);
            const spice::NodeId line = ckt.node(el.a);
            const spice::NodeId store = ckt.node(el.b);
            const spice::NodeId wl = ckt.node(spec.port_wl);
            const double w = el.width.resolve(config);
            spice::Transistor* t = nullptr;
            switch (orientation) {
            case AccessDevice::kInwardN: // conducts BL -> node: drain at BL
                t = &ckt.add_transistor(el.label, m.ntfet, line, wl, store,
                                        w);
                break;
            case AccessDevice::kInwardP: // conducts BL -> node: source at BL
                t = &ckt.add_transistor(el.label, m.ptfet, store, wl, line,
                                        w);
                break;
            case AccessDevice::kOutwardN: // conducts node -> BL: drain at node
                t = &ckt.add_transistor(el.label, m.ntfet, store, wl, line,
                                        w);
                break;
            case AccessDevice::kOutwardP: // conducts node -> BL: source at node
                t = &ckt.add_transistor(el.label, m.ptfet, line, wl, store,
                                        w);
                break;
            case AccessDevice::kCmos:
                t = &ckt.add_transistor(el.label, m.nmos, line, wl, store,
                                        w);
                break;
            }
            if (t == nullptr)
                throw std::invalid_argument(
                    "instantiate_spec: bad access device");
            break;
        }
        case SpecElement::Kind::kCapacitor: {
            double value = el.value;
            if (el.cap_kind == SpecElement::CapKind::kNode)
                value = config.c_node;
            else if (el.cap_kind == SpecElement::CapKind::kBitline)
                value = config.c_bitline;
            ckt.add_capacitor(el.label, ckt.node(el.a), spice::kGround,
                              value);
            break;
        }
        case SpecElement::Kind::kResistor:
            ckt.add_resistor(el.label, ckt.node(el.a), ckt.node(el.b),
                             el.value);
            break;
        }
    }
    ckt.prepare();

    cell.q = port_node(ckt, spec.port_q);
    cell.qb = port_node(ckt, spec.port_qb);
    cell.bl = port_node(ckt, spec.port_bl);
    cell.blb = port_node(ckt, spec.port_blb);
    cell.wl = port_node(ckt, spec.port_wl);
    cell.vdd = port_node(ckt, spec.port_vdd);
    cell.vss = port_node(ckt, spec.port_vss);
    cell.rbl = port_node(ckt, spec.port_rbl);
    cell.rwl = port_node(ckt, spec.port_rwl);
    return cell;
}

CellSpec load_cell_spec(const std::string& path) {
    auto deck = std::make_shared<netlist::Netlist>(
        netlist::Netlist::parse_file(path));
    if (deck->ports().empty())
        throw std::runtime_error(
            path + ": a cell-spec deck must declare its ports "
                   "(.ports q qb ...)");

    CellSpec spec;
    // id = filename stem ("examples/netlists/tfet_sram_8t.sp" -> "tfet_sram_8t")
    std::string stem = path;
    if (const auto slash = stem.find_last_of("/\\");
        slash != std::string::npos)
        stem.erase(0, slash + 1);
    if (const auto dot = stem.rfind('.'); dot != std::string::npos)
        stem.erase(dot);
    spec.id = stem;
    spec.display_name =
        deck->title().empty() ? stem : deck->title();
    spec.declared_ports = deck->ports();

    // The conventional port names bind the SramCell handles; anything else
    // is carried through declared_ports only. A spec must at least expose
    // its storage nodes.
    spec.port_q = spec.port_qb = spec.port_bl = spec.port_blb = "";
    spec.port_wl = spec.port_vdd = spec.port_vss = "";
    for (const std::string& p : deck->ports()) {
        if (p == "q")
            spec.port_q = p;
        else if (p == "qb")
            spec.port_qb = p;
        else if (p == "bl")
            spec.port_bl = p;
        else if (p == "blb")
            spec.port_blb = p;
        else if (p == "wl")
            spec.port_wl = p;
        else if (p == "vdd")
            spec.port_vdd = p;
        else if (p == "vss")
            spec.port_vss = p;
        else if (p == "rbl")
            spec.port_rbl = p;
        else if (p == "rwl")
            spec.port_rwl = p;
    }
    if (spec.port_q.empty() || spec.port_qb.empty())
        throw std::runtime_error(
            path + ": .ports must declare the storage nodes q and qb");

    // A declared read bitline marks the deck as a decoupled read-port
    // topology with the 8T/9T conventions: write bitlines clamp low during
    // hold and the read wordline asserts high.
    if (spec.has_read_port()) {
        spec.read_style = ReadStyle::kReadPort;
        spec.bl_hold_frac = 0.0;
        spec.rwl_active_frac = 1.0;
    }
    spec.deck = std::move(deck);
    return spec;
}

} // namespace tfetsram::sram
