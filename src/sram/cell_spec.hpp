#pragma once
// Topology-as-data: a cell topology is a declarative CellSpec — an ordered
// netlist template with declared ports, parameter bindings (beta, w_access,
// vdd, ...), per-device model slots, and the behavioral flags the operation
// programmer dispatches on — instead of hand-wired C++ in build_cell. The
// four legacy CellKinds are built-in specs whose instantiated circuits are
// bitwise-identical to the historical hand-coded ones (tests/test_cell_zoo
// proves it differentially); new topologies (8T read-port, the 9T
// near-threshold cell) are just more data. Specs can also be loaded from
// .sp decks via src/netlist, with the deck's .ports directive supplying the
// port contract (docs/CELLZOO.md).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sram/assist.hpp"
#include "sram/cell.hpp"

namespace tfetsram::netlist {
class Netlist;
} // namespace tfetsram::netlist

namespace tfetsram::sram {

/// How a spec's read operation is sensed (operations.cpp dispatches on
/// this instead of a CellKind switch).
enum class ReadStyle {
    kDifferential,   ///< WL pulse, both bitlines precharged, sense BL
    kReadPort,       ///< decoupled read stack: RWL pulse, sense RBL
    kSingleSidedBlb, ///< asymmetric cell: WL pulse, sense BLB only
};

/// Which configured model a spec transistor resolves to. The kCore slots
/// follow CellSpec::tfet_core (TFET core -> TFETs, CMOS core -> MOSFETs);
/// the explicit slots pin a model regardless of the core flavor.
enum class ModelSlot {
    kCoreN, ///< tfet_core ? models.ntfet : models.nmos
    kCoreP, ///< tfet_core ? models.ptfet : models.pmos
    kNTfet,
    kPTfet,
    kNMos,
    kPMos,
};

/// Width binding of a spec transistor: a named config parameter scaled by
/// a constant, or a literal width in um.
struct WidthExpr {
    enum class Base {
        kPullDown, ///< beta * w_access
        kAccess,   ///< w_access
        kPullUp,   ///< w_pullup
        kLiteral,  ///< scale itself is the width [um]
    };
    Base base = Base::kAccess;
    double scale = 1.0;

    [[nodiscard]] double resolve(const CellConfig& config) const;
};

/// One emission step of a spec. Steps run in order; the instantiated
/// circuit's node numbering and stamp sequence are exactly the emission
/// order (which is what makes legacy specs bitwise-identical to the old
/// hand-wired builder).
struct SpecElement {
    enum class Kind {
        kNode,         ///< create node `a`
        kRail,         ///< V<label> driving node `a` at level_frac * vdd
        kBitline,      ///< driver infra on existing node `a`: node a_drv,
                       ///< V<a>, SW<a> (r_precharge/1e12), C<a> (c_bitline)
        kWordline,     ///< V<label> on `a`; DC level = wl inactive level
        kReadWordline, ///< V<label> on `a`; DC level = rwl inactive level
        kTransistor,   ///< add_transistor(label, slot, a=d, b=g, c=s, width)
        kAccess,       ///< access device between bitline `a` and store `b`;
                       ///< orientation from config.access unless pinned
        kCapacitor,    ///< C to ground on `a` (c_node, c_bitline or literal)
        kResistor,     ///< R<label> between `a` and `b`, value ohms
    };
    enum class CapKind { kNode, kBitline, kLiteral };

    Kind kind = Kind::kNode;
    std::string label;
    std::string a, b, c; ///< node names (meaning depends on kind)
    ModelSlot slot = ModelSlot::kCoreN;
    WidthExpr width{};
    double level_frac = 0.0; ///< kRail: level as a fraction of vdd
    /// kAccess: pinned orientation; nullopt defers to config.access.
    std::optional<AccessDevice> orientation = std::nullopt;
    CapKind cap_kind = CapKind::kNode;
    double value = 0.0; ///< kCapacitor kLiteral [F] / kResistor [ohm]
};

/// A declarative cell topology. Immutable after registration; consumers
/// hold pointers into the built-in registry (static storage) or own the
/// spec themselves (deck-loaded specs).
struct CellSpec {
    std::string id;           ///< registry key, e.g. "tfet8t"
    std::string display_name; ///< report name, e.g. "8T TFET SRAM"
    /// Legacy enum this spec corresponds to (the built-in four); new
    /// topologies reuse the nearest kind but are never dispatched on it.
    CellKind kind = CellKind::kTfet6T;

    // ---- Behavioral contract (what operations.cpp dispatches on) ----
    ReadStyle read_style = ReadStyle::kDifferential;
    bool tfet_core = true;
    /// Wordline polarity follows the access-device choice (only the
    /// configurable 6T TFET cell; everything else is active-high).
    bool wl_follows_access = false;
    /// Write-bitline hold level as a fraction of vdd. Read-port cells
    /// clamp their write bitlines low (0.0) so outward access devices
    /// never see reverse bias during hold.
    double bl_hold_frac = 1.0;
    /// Read-wordline active level as a fraction of vdd (read-port specs
    /// only). The inactive level is (1 - rwl_active_frac) * vdd: the 7T
    /// cell's source-side read buffer asserts low, the 8T/9T stacks
    /// assert high.
    double rwl_active_frac = 0.0;
    /// Writes are single-sided with a fixed polarity (the asymmetric
    /// cell); preferred_write is the only polarity such a spec can write.
    bool single_sided_write = false;
    bool preferred_write = true;
    /// Assist baked into the topology's write operation (kNone for most).
    Assist implicit_write_assist = Assist::kNone;
    bool wlcrit_defined = true;

    // ---- Port contract ----
    std::string port_q = "q";
    std::string port_qb = "qb";
    std::string port_bl = "bl";
    std::string port_blb = "blb";
    std::string port_wl = "wl";
    std::string port_vdd = "vdd";
    std::string port_vss = "vss";
    std::string port_rbl; ///< empty when the spec has no read port
    std::string port_rwl;
    /// All declared ports, in declaration order (reports, examples).
    std::vector<std::string> declared_ports;

    // ---- Template body (built-in specs) ----
    /// Nodes created up front, in order (port nodes first — their ids are
    /// part of the bitwise-identity contract).
    std::vector<std::string> nodes;
    std::vector<SpecElement> elements;

    /// Deck-backed specs instantiate by building this netlist instead of
    /// emitting `elements` (see load_cell_spec).
    std::shared_ptr<const netlist::Netlist> deck;

    [[nodiscard]] bool has_read_port() const { return !port_rbl.empty(); }
};

/// The built-in spec for a legacy CellKind (static storage).
const CellSpec& builtin_spec(CellKind kind);

/// Every built-in spec: the legacy four plus the 8T read-port and 9T
/// near-threshold topologies (static storage, stable order).
const std::vector<CellSpec>& builtin_specs();

/// Look up a built-in spec by id ("tfet6t", "tfet8t", ...); throws
/// std::invalid_argument for unknown ids.
const CellSpec& find_spec(const std::string& id);

/// Instantiate a spec into a ready-to-operate cell. config.spec is set to
/// `spec`; for built-in specs config.kind is aligned with the spec's.
SramCell instantiate_spec(const CellSpec& spec, const CellConfig& config,
                          const spice::SimContext* sim = nullptr);

/// Load a deck-backed spec from a .sp file. The deck must declare its
/// ports (.ports directive) including at least q and qb; the conventional
/// names q/qb/bl/blb/wl/vdd/vss/rbl/rwl bind the SramCell handles, and a
/// declared rbl port marks the spec as read-port style. Deck specs carry
/// no variable-device list (Monte-Carlo needs a built-in spec).
CellSpec load_cell_spec(const std::string& path);

/// The spec governing a configuration (or a cell built from one):
/// config.spec when set, otherwise the built-in spec of config.kind (so
/// legacy configs keep working).
const CellSpec& spec_of(const CellConfig& config);
const CellSpec& spec_of(const SramCell& cell);

/// True when the wordline asserts low: the spec's wordline follows the
/// access device (only the configurable 6T TFET cell) and that device is
/// p-type. Every other wordline is active-high.
bool wordline_active_low(const CellSpec& spec, AccessDevice access);

} // namespace tfetsram::sram
