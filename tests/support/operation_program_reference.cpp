#include "operation_program_reference.hpp"

#include <deque>
#include <vector>

#include "sram/cell_spec.hpp"

namespace testing_support {

namespace {

using namespace tfetsram;
using namespace tfetsram::sram;
using spice::Waveform;

/// Stands in for one voltage source or switch: what a program sets on it
/// lands in the program map under the source's key.
struct Slot {
    ProgramMap* out;
    std::string key;
    void set_waveform(Waveform w) const {
        out->insert_or_assign(key, std::move(w));
    }
    void set_control(Waveform w) const { set_waveform(std::move(w)); }
};

/// The handles of a built cell as slots: present exactly where the cell
/// has the source, so the null checks of the hold program act as before.
struct RefCell {
    RefCell(const SramCell& cell, ProgramMap& out)
        : config(cell.config), q(cell.q), qb(cell.qb), bl(cell.bl),
          blb(cell.blb), rbl(cell.rbl) {
        const auto bind = [&](const void* handle, const char* key) {
            if (handle == nullptr)
                return static_cast<const Slot*>(nullptr);
            slots.push_back(Slot{&out, key});
            return static_cast<const Slot*>(&slots.back());
        };
        v_vdd = bind(cell.v_vdd, "vdd");
        v_vss = bind(cell.v_vss, "vss");
        v_wl = bind(cell.v_wl, "wl");
        v_bl = bind(cell.v_bl, "bl");
        v_blb = bind(cell.v_blb, "blb");
        v_rwl = bind(cell.v_rwl, "rwl");
        v_rbl = bind(cell.v_rbl, "rbl");
        sw_bl = bind(cell.sw_bl, "sw_bl");
        sw_blb = bind(cell.sw_blb, "sw_blb");
        sw_rbl = bind(cell.sw_rbl, "sw_rbl");
    }

    CellConfig config;
    spice::NodeId q, qb, bl, blb, rbl;
    std::deque<Slot> slots;
    const Slot* v_vdd;
    const Slot* v_vss;
    const Slot* v_wl;
    const Slot* v_bl;
    const Slot* v_blb;
    const Slot* v_rwl;
    const Slot* v_rbl;
    const Slot* sw_bl;
    const Slot* sw_blb;
    const Slot* sw_rbl;

    [[nodiscard]] double wl_active_level() const;
    [[nodiscard]] double wl_inactive_level() const;
};

const CellSpec& spec_of(const RefCell& cell) {
    return cell.config.spec != nullptr ? *cell.config.spec
                                       : builtin_spec(cell.config.kind);
}

double RefCell::wl_active_level() const {
    const bool ptype =
        spec_of(*this).wl_follows_access && access_is_ptype(config.access);
    return ptype ? 0.0 : config.vdd;
}

double RefCell::wl_inactive_level() const {
    const bool ptype =
        spec_of(*this).wl_follows_access && access_is_ptype(config.access);
    return ptype ? config.vdd : 0.0;
}

// ---- The cell driver's programs ------------------------------------------

/// Base level until t_on, ramp to `active` over `edge`, hold until t_off,
/// ramp back. Collapses to DC when the levels coincide.
Waveform ramp_hold_ramp(double base, double active, double t_on, double t_off,
                        double edge) {
    if (base == active)
        return Waveform::dc(base);
    TFET_EXPECTS(t_off >= t_on + edge);
    return Waveform::pwl({{t_on, base},
                          {t_on + edge, active},
                          {t_off, active},
                          {t_off + edge, base}});
}

/// Hold level of the write bitlines, from the spec's contract: read-port
/// topologies ([14]'s 7T, the 8T/9T stacks) clamp their write bitlines low
/// precisely to keep their outward access devices out of reverse bias.
double bitline_hold_level(const RefCell& cell) {
    return spec_of(cell).bl_hold_frac * cell.config.vdd;
}

/// Switch control that opens (1 -> 0) shortly before t_open.
Waveform open_before(double t_open) {
    const double lead = 4e-12;
    TFET_EXPECTS(t_open > lead);
    return Waveform::pwl({{t_open - lead, 1.0}, {t_open - lead / 2.0, 0.0}});
}

void program_hold(RefCell& cell) {
    const CellSpec& spec = spec_of(cell);
    const double vdd = cell.config.vdd;
    // Deck-built cells may omit individual drivers (a deck that ties VSS
    // straight to ground has no Vvss) — program whatever handles exist.
    if (cell.v_vdd != nullptr)
        cell.v_vdd->set_waveform(Waveform::dc(vdd));
    if (cell.v_vss != nullptr)
        cell.v_vss->set_waveform(Waveform::dc(0.0));
    if (cell.v_wl != nullptr)
        cell.v_wl->set_waveform(Waveform::dc(cell.wl_inactive_level()));
    if (cell.v_bl != nullptr)
        cell.v_bl->set_waveform(Waveform::dc(bitline_hold_level(cell)));
    if (cell.v_blb != nullptr)
        cell.v_blb->set_waveform(Waveform::dc(bitline_hold_level(cell)));
    if (cell.sw_bl != nullptr)
        cell.sw_bl->set_control(Waveform::dc(1.0));
    if (cell.sw_blb != nullptr)
        cell.sw_blb->set_control(Waveform::dc(1.0));
    if (spec.has_read_port()) {
        if (cell.v_rwl != nullptr)
            cell.v_rwl->set_waveform(
                Waveform::dc((1.0 - spec.rwl_active_frac) * vdd));
        if (cell.v_rbl != nullptr)
            cell.v_rbl->set_waveform(Waveform::dc(vdd));
        if (cell.sw_rbl != nullptr)
            cell.sw_rbl->set_control(Waveform::dc(1.0));
    }
}

OperationWindow program_write(RefCell& cell, bool value, double pulse_width,
                              Assist assist, double fraction,
                              const OperationTiming& timing) {
    TFET_EXPECTS(pulse_width > 0.0);
    TFET_EXPECTS(assist == Assist::kNone || is_write_assist(assist));
    program_hold(cell);

    const CellConfig& cfg = cell.config;
    const CellSpec& spec = spec_of(cell);
    // Some topologies (the asymmetric cell of [15]) bake an assist into
    // their write operation; writes always use it.
    if (spec.implicit_write_assist != Assist::kNone && assist == Assist::kNone)
        assist = spec.implicit_write_assist;
    if (spec.single_sided_write)
        TFET_EXPECTS(value == spec.preferred_write);

    const double wl_active = cell.wl_active_level();
    const double wl_inactive = cell.wl_inactive_level();
    const AssistLevels lv = assist_levels(cfg.vdd, wl_active, assist, fraction);

    OperationWindow w;
    const double ta_on = timing.t_settle;
    w.wl_start = ta_on + timing.assist_edge + timing.assist_lead;
    w.wl_mid = w.wl_start + timing.wl_edge / 2.0;
    const double wl_fall_start = w.wl_start + timing.wl_edge + pulse_width;
    w.wl_end = wl_fall_start + timing.wl_edge;
    const double ta_off = w.wl_end + timing.assist_lag;
    w.t_end = w.wl_end + timing.t_post;

    cell.v_vdd->set_waveform(
        ramp_hold_ramp(cfg.vdd, lv.vdd, ta_on, ta_off, timing.assist_edge));
    cell.v_vss->set_waveform(
        ramp_hold_ramp(0.0, lv.vss, ta_on, ta_off, timing.assist_edge));
    cell.v_wl->set_waveform(
        ramp_hold_ramp(wl_inactive, lv.wl_active, w.wl_start, wl_fall_start,
                  timing.wl_edge));

    const double hold = bitline_hold_level(cell);
    const double high_target = lv.bl_high;
    const double low_target = lv.bl_low;
    // Bitlines switch to write levels alongside the assist and return after.
    if (value) {
        cell.v_bl->set_waveform(
            ramp_hold_ramp(hold, high_target, ta_on, ta_off, timing.assist_edge));
        cell.v_blb->set_waveform(
            ramp_hold_ramp(hold, low_target, ta_on, ta_off, timing.assist_edge));
    } else {
        cell.v_bl->set_waveform(
            ramp_hold_ramp(hold, low_target, ta_on, ta_off, timing.assist_edge));
        cell.v_blb->set_waveform(
            ramp_hold_ramp(hold, high_target, ta_on, ta_off, timing.assist_edge));
    }
    return w;
}

ReadSetup program_read(RefCell& cell, double read_duration, Assist assist,
                       double fraction, const OperationTiming& timing,
                       bool float_bitlines) {
    TFET_EXPECTS(read_duration > 0.0);
    TFET_EXPECTS(assist == Assist::kNone || is_read_assist(assist));
    program_hold(cell);

    const CellConfig& cfg = cell.config;
    const double wl_active = cell.wl_active_level();
    const double wl_inactive = cell.wl_inactive_level();
    const AssistLevels lv = assist_levels(cfg.vdd, wl_active, assist, fraction);

    ReadSetup setup;
    OperationWindow& w = setup.window;
    const double ta_on = timing.t_settle;
    w.wl_start = ta_on + timing.assist_edge + timing.assist_lead;
    w.wl_mid = w.wl_start + timing.wl_edge / 2.0;
    const double wl_fall_start = w.wl_start + timing.wl_edge + read_duration;
    w.wl_end = wl_fall_start + timing.wl_edge;
    const double ta_off = w.wl_end + timing.assist_lag;
    w.t_end = w.wl_end + timing.t_post;

    cell.v_vdd->set_waveform(
        ramp_hold_ramp(cfg.vdd, lv.vdd, ta_on, ta_off, timing.assist_edge));
    cell.v_vss->set_waveform(
        ramp_hold_ramp(0.0, lv.vss, ta_on, ta_off, timing.assist_edge));

    setup.precharge_level = lv.bl_high;

    switch (spec_of(cell).read_style) {
    case ReadStyle::kDifferential: {
        cell.v_wl->set_waveform(ramp_hold_ramp(wl_inactive, lv.wl_active,
                                          w.wl_start, wl_fall_start,
                                          timing.wl_edge));
        // Both bitlines precharged (possibly to a lowered level per the
        // bitline-lowering RA).
        cell.v_bl->set_waveform(ramp_hold_ramp(cfg.vdd, lv.bl_high, ta_on, ta_off,
                                          timing.assist_edge));
        cell.v_blb->set_waveform(ramp_hold_ramp(cfg.vdd, lv.bl_high, ta_on, ta_off,
                                           timing.assist_edge));
        if (float_bitlines) {
            cell.sw_bl->set_control(open_before(w.wl_start));
            cell.sw_blb->set_control(open_before(w.wl_start));
        }
        // Disturb side: the node storing 0 gets pulled up through its
        // access device. Initialize q = 0.
        setup.q_high_init = false;
        setup.disturb_node = cell.q;
        setup.safe_node = cell.qb;
        setup.sense_node = cell.bl;
        break;
    }
    case ReadStyle::kReadPort: {
        // Write wordline stays off; the read wordline swings to its active
        // level — low for the 7T's source-side read buffer
        // (rwl_active_frac = 0), high for the 8T/9T gated stacks.
        const CellSpec& spec = spec_of(cell);
        const double rwl_idle = (1.0 - spec.rwl_active_frac) * cfg.vdd;
        const double rwl_active = spec.rwl_active_frac * cfg.vdd;
        cell.v_rwl->set_waveform(ramp_hold_ramp(rwl_idle, rwl_active, w.wl_start,
                                           wl_fall_start, timing.wl_edge));
        cell.v_rbl->set_waveform(ramp_hold_ramp(cfg.vdd, lv.bl_high, ta_on, ta_off,
                                           timing.assist_edge));
        if (float_bitlines)
            cell.sw_rbl->set_control(open_before(w.wl_start));
        // qb = 1 turns the read buffer on; the storage nodes are decoupled,
        // so the "disturb" node only sees capacitive kick.
        setup.q_high_init = false;
        setup.disturb_node = cell.q;
        setup.safe_node = cell.qb;
        setup.sense_node = cell.rbl;
        break;
    }
    case ReadStyle::kSingleSidedBlb: {
        cell.v_wl->set_waveform(ramp_hold_ramp(wl_inactive, lv.wl_active,
                                          w.wl_start, wl_fall_start,
                                          timing.wl_edge));
        // Read through the inward device on BLB: it pulls qb (storing 0)
        // up while BLB droops.
        cell.v_blb->set_waveform(ramp_hold_ramp(cfg.vdd, lv.bl_high, ta_on, ta_off,
                                           timing.assist_edge));
        if (float_bitlines)
            cell.sw_blb->set_control(open_before(w.wl_start));
        setup.q_high_init = true;
        setup.disturb_node = cell.qb;
        setup.safe_node = cell.q;
        setup.sense_node = cell.blb;
        break;
    }
    }
    return setup;
}

// ---- The flat array driver's programs ------------------------------------

constexpr double kSettle = 50e-12;
constexpr double kAssistLead = 500e-12;
constexpr double kAssistEdge = 10e-12;
constexpr double kWlEdge = 5e-12;
constexpr double kPost = 400e-12;

/// Base level until t_on, ramp to active, hold until t_off, ramp back.
Waveform array_ramp_hold_ramp(double base, double active, double t_on,
                              double t_off, double edge) {
    if (base == active)
        return Waveform::dc(base);
    return Waveform::pwl({{t_on, base},
                          {t_on + edge, active},
                          {t_off, active},
                          {t_off + edge, base}});
}

bool wordline_active_low(const sram::CellConfig& cell) {
    return cell.kind == sram::CellKind::kTfet6T &&
           sram::access_is_ptype(cell.access);
}

/// The sources of an array built from `config`, as slots keyed by label.
class RefArray {
public:
    RefArray(const array::ArrayConfig& config, ProgramMap& out)
        : config_(config), out_(out) {
        const double vdd = config_.cell.vdd;
        slot("Vvdd")->set_waveform(Waveform::dc(vdd));
        col_handles_.resize(config_.cols);
        for (std::size_t c = 0; c < config_.cols; ++c) {
            ColHandles& col = col_handles_[c];
            const std::string id = std::to_string(c);
            col.v_bl = slot("Vbl" + id);
            col.v_blb = slot("Vblb" + id);
            col.sw_bl = slot("SWbl" + id);
            col.sw_blb = slot("SWblb" + id);
            col.v_vss = slot("Vvss" + id);
            col.v_bl->set_waveform(Waveform::dc(vdd));
            col.v_blb->set_waveform(Waveform::dc(vdd));
            col.sw_bl->set_control(Waveform::dc(1.0));
            col.sw_blb->set_control(Waveform::dc(1.0));
            col.v_vss->set_waveform(Waveform::dc(0.0));
        }
        const bool active_low = wordline_active_low(config_.cell);
        row_handles_.resize(config_.rows);
        for (std::size_t r = 0; r < config_.rows; ++r) {
            row_handles_[r].wl = slot("Vwl" + std::to_string(r));
            row_handles_[r].wl->set_waveform(
                Waveform::dc(active_low ? vdd : 0.0));
        }
    }

    void write(std::size_t row, std::size_t col, bool value);
    void read(std::size_t row, std::size_t col);

private:
    struct RowHandles {
        const Slot* wl = nullptr;
    };
    struct ColHandles {
        const Slot* v_bl = nullptr;
        const Slot* v_blb = nullptr;
        const Slot* v_vss = nullptr;
        const Slot* sw_bl = nullptr;
        const Slot* sw_blb = nullptr;
    };

    const Slot* slot(const std::string& label) {
        slots_.push_back(Slot{&out_, label});
        return &slots_.back();
    }
    void quiesce();

    array::ArrayConfig config_;
    ProgramMap& out_;
    std::deque<Slot> slots_;
    std::vector<RowHandles> row_handles_;
    std::vector<ColHandles> col_handles_;
};

void RefArray::quiesce() {
    const double vdd = config_.cell.vdd;
    const bool active_low = wordline_active_low(config_.cell);
    for (RowHandles& row : row_handles_)
        row.wl->set_waveform(Waveform::dc(active_low ? vdd : 0.0));
    for (ColHandles& col : col_handles_) {
        col.v_bl->set_waveform(Waveform::dc(vdd));
        col.v_blb->set_waveform(Waveform::dc(vdd));
        col.v_vss->set_waveform(Waveform::dc(0.0));
        col.sw_bl->set_control(Waveform::dc(1.0));
        col.sw_blb->set_control(Waveform::dc(1.0));
    }
}

void RefArray::write(std::size_t row, std::size_t col, bool value) {
    quiesce();

    const double vdd = config_.cell.vdd;
    const bool active_low = wordline_active_low(config_.cell);
    const double wl_inactive = active_low ? vdd : 0.0;
    const sram::AssistLevels lv = sram::assist_levels(
        vdd, active_low ? 0.0 : vdd, config_.write_assist,
        config_.assist_fraction);

    const double ta_on = kSettle;
    const double wl_start = ta_on + kAssistEdge + kAssistLead;
    const double wl_fall = wl_start + kWlEdge + config_.write_pulse;
    const double wl_end = wl_fall + kWlEdge;
    const double ta_off = wl_end + 30e-12;

    row_handles_[row].wl->set_waveform(
        array_ramp_hold_ramp(wl_inactive, lv.wl_active, wl_start, wl_fall,
                        kWlEdge));
    ColHandles& target = col_handles_[col];
    target.v_vss->set_waveform(
        array_ramp_hold_ramp(0.0, lv.vss, ta_on, ta_off, kAssistEdge));
    target.v_bl->set_waveform(array_ramp_hold_ramp(
        vdd, value ? lv.bl_high : lv.bl_low, ta_on, ta_off, kAssistEdge));
    target.v_blb->set_waveform(array_ramp_hold_ramp(
        vdd, value ? lv.bl_low : lv.bl_high, ta_on, ta_off, kAssistEdge));
    if (config_.read_assist != sram::Assist::kNone) {
        const sram::AssistLevels ra = sram::assist_levels(
            vdd, active_low ? 0.0 : vdd, config_.read_assist,
            config_.assist_fraction);
        for (std::size_t c = 0; c < config_.cols; ++c)
            if (c != col)
                col_handles_[c].v_vss->set_waveform(
                    array_ramp_hold_ramp(0.0, ra.vss, ta_on, ta_off, kAssistEdge));
    }
}

void RefArray::read(std::size_t row, std::size_t col) {
    quiesce();

    const double vdd = config_.cell.vdd;
    const bool active_low = wordline_active_low(config_.cell);
    const double wl_inactive = active_low ? vdd : 0.0;
    const sram::AssistLevels lv =
        sram::assist_levels(vdd, active_low ? 0.0 : vdd, config_.read_assist,
                            config_.assist_fraction);

    const double ta_on = kSettle;
    const double wl_start = ta_on + kAssistEdge + kAssistLead;
    const double wl_fall = wl_start + kWlEdge + config_.read_duration;
    const double wl_end = wl_fall + kWlEdge;
    const double ta_off = wl_end + 30e-12;

    row_handles_[row].wl->set_waveform(
        array_ramp_hold_ramp(wl_inactive, lv.wl_active, wl_start, wl_fall,
                        kWlEdge));
    for (ColHandles& ch : col_handles_)
        ch.v_vss->set_waveform(
            array_ramp_hold_ramp(0.0, lv.vss, ta_on, ta_off, kAssistEdge));
    ColHandles& target = col_handles_[col];
    target.v_bl->set_waveform(
        array_ramp_hold_ramp(vdd, lv.bl_high, ta_on, ta_off, kAssistEdge));
    target.v_blb->set_waveform(
        array_ramp_hold_ramp(vdd, lv.bl_high, ta_on, ta_off, kAssistEdge));
    const Waveform open = Waveform::pwl(
        {{wl_start - 4e-12, 1.0}, {wl_start - 2e-12, 0.0}});
    target.sw_bl->set_control(open);
    target.sw_blb->set_control(open);
}

} // namespace

ProgramMap reference_hold(const SramCell& built) {
    ProgramMap out;
    RefCell cell(built, out);
    program_hold(cell);
    return out;
}

ProgramMap reference_write(const SramCell& built, bool value,
                           double pulse_width, Assist assist, double fraction,
                           const OperationTiming& timing,
                           OperationWindow* window) {
    ProgramMap out;
    RefCell cell(built, out);
    *window = program_write(cell, value, pulse_width, assist, fraction, timing);
    return out;
}

ProgramMap reference_read(const SramCell& built, double read_duration,
                          Assist assist, double fraction,
                          const OperationTiming& timing, bool float_bitlines,
                          ReadSetup* setup) {
    ProgramMap out;
    RefCell cell(built, out);
    *setup = program_read(cell, read_duration, assist, fraction, timing,
                          float_bitlines);
    return out;
}

ProgramMap reference_array_write(const array::ArrayConfig& config,
                                 std::size_t row, std::size_t col,
                                 bool value) {
    ProgramMap out;
    RefArray arr(config, out);
    arr.write(row, col, value);
    return out;
}

ProgramMap reference_array_read(const array::ArrayConfig& config,
                                std::size_t row, std::size_t col) {
    ProgramMap out;
    RefArray arr(config, out);
    arr.read(row, col);
    return out;
}

} // namespace testing_support
