#pragma once
// SRAM cell netlist construction. Covers every topology the paper studies:
//  * the 6T CMOS baseline (Fig. 3a),
//  * the 6T TFET cell with each of the four access-device choices
//    (Fig. 3b-e): inward/outward n/p-type,
//  * the 7T TFET cell with a separate single-transistor read port [14],
//  * the asymmetric 6T TFET cell of [15].
//
// "Inward" means the access device conducts from the bitline into the cell
// (nTFET: drain at BL; pTFET: source at BL); "outward" is the mirror. Only
// the TFETs' unidirectional conduction makes this distinction meaningful.

#include <optional>

#include "device/models.hpp"
#include "spice/circuit.hpp"

namespace tfetsram::spice {
class SimContext;
} // namespace tfetsram::spice

namespace tfetsram::sram {

/// Access-transistor choice for the 6T cell (Fig. 3b-e, plus the CMOS
/// baseline's nMOS pass gate).
enum class AccessDevice {
    kOutwardN, ///< Fig. 3(b)
    kOutwardP, ///< Fig. 3(c)
    kInwardN,  ///< Fig. 3(d)
    kInwardP,  ///< Fig. 3(e) — the paper's recommendation
    kCmos,     ///< nMOS pass gate of the 6T CMOS baseline
};

/// Cell topology (the legacy four; the spec registry in cell_spec.hpp is
/// the extensible superset — these enumerators now merely name built-in
/// specs).
enum class CellKind {
    kCmos6T,     ///< 32 nm CMOS baseline
    kTfet6T,     ///< standard 6T with TFET devices
    kTfet7T,     ///< [14]: 6T core + separate read port
    kTfetAsym6T, ///< [15]: asymmetric access devices
};

struct CellSpec;

/// Full parameterization of one cell instance.
struct CellConfig {
    /// Topology: when `spec` is set it wins; `kind` then only echoes the
    /// spec's nearest legacy enumerator. When `spec` is null, build_cell
    /// resolves the built-in spec of `kind` (the legacy behavior).
    const CellSpec* spec = nullptr;
    CellKind kind = CellKind::kTfet6T;
    AccessDevice access = AccessDevice::kInwardP;
    double vdd = 0.8;        ///< nominal supply [V]
    double beta = 1.0;       ///< cell ratio: W(pull-down) / W(access)
    double w_access = 1.0;   ///< access width [um]
    double w_pullup = 0.5;   ///< pull-up width [um]
    double c_node = 0.25e-15;   ///< storage-node junction loading [F]
    double c_bitline = 10e-15;  ///< bitline capacitance [F]
    double r_precharge = 1e3;   ///< precharge switch on-resistance [ohm]
    device::ModelSet models;    ///< devices to build from
};

/// True when the access device is p-type (wordline is then active-low).
bool access_is_ptype(AccessDevice access);

/// Human-readable names for reports.
const char* to_string(AccessDevice access);
const char* to_string(CellKind kind);

/// A built cell: the circuit plus handles to every node and source the
/// operation programmer needs. Plain aggregate — no invariant beyond
/// "built by build_cell".
struct SramCell {
    CellConfig config;
    spice::Circuit circuit;

    // Nodes.
    spice::NodeId q = 0;
    spice::NodeId qb = 0;
    spice::NodeId bl = 0;
    spice::NodeId blb = 0;
    spice::NodeId wl = 0;
    spice::NodeId vdd = 0;
    spice::NodeId vss = 0;

    // Sources (owned by the circuit).
    spice::VoltageSource* v_vdd = nullptr;
    spice::VoltageSource* v_vss = nullptr;
    spice::VoltageSource* v_bl = nullptr;
    spice::VoltageSource* v_blb = nullptr;
    spice::VoltageSource* v_wl = nullptr;

    // Bitline precharge switches: when present, the bitline sources drive
    // through these so read operations can float the bitlines.
    spice::TimedSwitch* sw_bl = nullptr;
    spice::TimedSwitch* sw_blb = nullptr;

    // 7T read port (null for other kinds).
    spice::NodeId rbl = 0;
    spice::NodeId rwl = 0;
    spice::VoltageSource* v_rbl = nullptr;
    spice::VoltageSource* v_rwl = nullptr;
    spice::TimedSwitch* sw_rbl = nullptr;

    /// Optional warm-start seed for the first (cold) DC solve — the MC
    /// driver plants the nominal-sample hold solution here so each
    /// perturbed sample's Newton starts near its operating point. Ignored
    /// unless it matches circuit.num_unknowns() (a metric that adds nodes,
    /// e.g. SNM's probe source, simply falls back to a cold start).
    la::Vector dc_seed;

    /// Simulation context this cell's operations run under (non-owning;
    /// nullptr defers to the caller's ambient context). The operation and
    /// metric entry points pass it to each of their solves, so a cell
    /// built under an explicit context stays attributed to it even when
    /// evaluated from another thread.
    const spice::SimContext* sim = nullptr;

    /// Wordline levels implied by the access-device polarity.
    [[nodiscard]] double wl_active_level() const;
    [[nodiscard]] double wl_inactive_level() const;
};

/// Build a cell netlist from a configuration, optionally pinned to an
/// explicit simulation context (see SramCell::sim). Thin wrapper over
/// instantiate_spec (cell_spec.hpp): config.spec when set, otherwise the
/// built-in spec of config.kind.
SramCell build_cell(const CellConfig& config,
                    const spice::SimContext* sim = nullptr);

/// External connection points of one 6T cell being embedded into a larger
/// circuit (arrays). All nodes must already exist in the circuit.
struct CellPorts {
    spice::NodeId q = 0;
    spice::NodeId qb = 0;
    spice::NodeId bl = 0;
    spice::NodeId blb = 0;
    spice::NodeId wl = 0;
    spice::NodeId vdd = 0;
    spice::NodeId vss = 0;
};

/// Contract of every 6T-only builder (build_6t_devices, both array
/// engines): config.kind is kCmos6T or kTfet6T. Throws contract_violation
/// otherwise.
void expect_6t(const CellConfig& config);

/// Instantiate the six transistors and storage-node capacitors of one
/// kCmos6T / kTfet6T cell into an existing circuit. Device labels get
/// `prefix` prepended. Used by the array builders.
void build_6t_devices(spice::Circuit& circuit, const CellConfig& config,
                      const CellPorts& ports, const std::string& prefix);

} // namespace tfetsram::sram
