#include "array/array.hpp"

#include <cmath>

#include "sram/operations.hpp"
#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"

namespace tfetsram::array {

void validate_config(const ArrayConfig& config) {
    auto reject = [](const std::string& what) {
        spice::SolveError err;
        err.code = spice::SolveErrorCode::kInvalidConfig;
        err.message = "ArrayConfig: " + what;
        throw spice::SolveException(std::move(err));
    };
    if (config.rows == 0 || config.cols == 0)
        reject("degenerate shape " + std::to_string(config.rows) + "x" +
               std::to_string(config.cols) +
               " (rows and cols must both be >= 1)");
    if (!std::isfinite(config.c_bitline_per_row) ||
        config.c_bitline_per_row <= 0.0)
        reject("c_bitline_per_row must be finite and > 0 (got " +
               std::to_string(config.c_bitline_per_row) +
               "); it is stamped per row into each column's lumped "
               "bitline capacitor");
    if (!std::isfinite(config.cell.vdd) || config.cell.vdd <= 0.0)
        reject("cell.vdd must be finite and > 0");
    if (!(config.write_pulse > 0.0) || !(config.read_duration > 0.0))
        reject("write_pulse and read_duration must be > 0");
    if (!std::isfinite(config.sense_margin) || config.sense_margin < 0.0)
        reject("sense_margin must be finite and >= 0");
}

void add_column_rails(spice::Circuit& ckt, const ArrayConfig& config,
                      std::size_t c, const sram::OperationProgram& hold,
                      ColumnRails& rails) {
    const std::string id = std::to_string(c);
    rails.bl = ckt.add_node("bl" + id);
    rails.blb = ckt.add_node("blb" + id);
    rails.bl_drv = ckt.add_node("bl" + id + "_drv");
    rails.blb_drv = ckt.add_node("blb" + id + "_drv");
    rails.v_bl =
        &ckt.add_vsource("Vbl" + id, rails.bl_drv, spice::kGround, hold.bl);
    rails.v_blb =
        &ckt.add_vsource("Vblb" + id, rails.blb_drv, spice::kGround, hold.blb);
    rails.sw_bl = &ckt.add_switch("SWbl" + id, rails.bl_drv, rails.bl,
                                  config.cell.r_precharge, 1e12, hold.sw_bl);
    rails.sw_blb = &ckt.add_switch("SWblb" + id, rails.blb_drv, rails.blb,
                                   config.cell.r_precharge, 1e12, hold.sw_blb);
    const double c_bl =
        config.c_bitline_per_row * static_cast<double>(config.rows);
    ckt.add_capacitor("Cbl" + id, rails.bl, spice::kGround, c_bl);
    ckt.add_capacitor("Cblb" + id, rails.blb, spice::kGround, c_bl);
    rails.vss = ckt.add_node("vss" + id);
    rails.v_vss =
        &ckt.add_vsource("Vvss" + id, rails.vss, spice::kGround, hold.vss);
}

AccessPrograms write_programs(const ArrayConfig& config, bool value) {
    return {sram::OperationProgram::write(
                config.cell, value, config.write_pulse, config.write_assist,
                config.assist_fraction, {}),
            sram::OperationProgram::read(config.cell, config.write_pulse,
                                         config.read_assist,
                                         config.assist_fraction, {}, false)};
}

AccessPrograms read_programs(const ArrayConfig& config) {
    const sram::OperationProgram read = sram::OperationProgram::read(
        config.cell, config.read_duration, config.read_assist,
        config.assist_fraction, {}, true);
    return {read, read};
}

SramArray::SramArray(const ArrayConfig& config, const spice::SimContext* sim)
    : config_(config), sim_(sim) {
    validate_config(config);
    sram::expect_6t(config.cell);

    const sram::OperationProgram hold =
        sram::OperationProgram::hold(config_.cell);
    vdd_node_ = ckt_.add_node("vdd");
    ckt_.add_vsource("Vvdd", vdd_node_, spice::kGround, hold.vdd);

    col_handles_.resize(config_.cols);
    for (std::size_t c = 0; c < config_.cols; ++c)
        add_column_rails(ckt_, config_, c, hold, col_handles_[c]);

    row_handles_.resize(config_.rows);
    cells_.resize(config_.rows * config_.cols);
    for (std::size_t r = 0; r < config_.rows; ++r) {
        RowHandles& row = row_handles_[r];
        const std::string rid = std::to_string(r);
        const spice::NodeId wl = ckt_.add_node("wl" + rid);
        row.wl_node = wl;
        row.wl = &ckt_.add_vsource("Vwl" + rid, wl, spice::kGround, hold.wl);
        for (std::size_t c = 0; c < config_.cols; ++c) {
            CellNodes& cell = cells_[r * config_.cols + c];
            const std::string cid = rid + "_" + std::to_string(c);
            cell.q = ckt_.add_node("q" + cid);
            cell.qb = ckt_.add_node("qb" + cid);
            const sram::CellPorts ports{cell.q,
                                        cell.qb,
                                        col_handles_[c].bl,
                                        col_handles_[c].blb,
                                        wl,
                                        vdd_node_,
                                        col_handles_[c].vss};
            sram::build_6t_devices(ckt_, config_.cell, ports, "x" + cid + "_");
        }
    }
    ckt_.prepare();
}

const SramArray::CellNodes& SramArray::at(std::size_t row,
                                          std::size_t col) const {
    TFET_EXPECTS(row < config_.rows && col < config_.cols);
    return cells_[row * config_.cols + col];
}

void SramArray::quiesce() {
    const sram::OperationProgram hold =
        sram::OperationProgram::hold(config_.cell);
    for (RowHandles& row : row_handles_)
        row.wl->set_waveform(hold.wl);
    for (ColumnRails& col : col_handles_) {
        col.v_bl->set_waveform(hold.bl);
        col.v_blb->set_waveform(hold.blb);
        col.v_vss->set_waveform(hold.vss);
        col.sw_bl->set_control(hold.sw_bl);
        col.sw_blb->set_control(hold.sw_blb);
    }
}

void SramArray::program(std::size_t row, std::size_t col,
                        const AccessPrograms& ops) {
    quiesce();
    row_handles_[row].wl->set_waveform(ops.access.wl);
    // Unselected columns keep their bitlines clamped at VDD, so their
    // cells on this row see the half-select (pseudo-read) disturb. The
    // segmented virtual grounds let the read assist protect exactly them
    // without touching the accessed column.
    for (std::size_t c = 0; c < config_.cols; ++c)
        col_handles_[c].v_vss->set_waveform(c == col ? ops.access.vss
                                                     : ops.unselected.vss);
    ColumnRails& target = col_handles_[col];
    target.v_bl->set_waveform(ops.access.bl);
    target.v_blb->set_waveform(ops.access.blb);
    target.sw_bl->set_control(ops.access.sw_bl);
    target.sw_blb->set_control(ops.access.sw_blb);
}

bool SramArray::initialize(const std::vector<std::vector<bool>>& data) {
    TFET_EXPECTS(data.size() == config_.rows);
    for (const auto& row : data)
        TFET_EXPECTS(row.size() == config_.cols);

    quiesce();
    const spice::ScopedContext bind(sim_);
    const spice::SolverOptions opts;
    const double vdd = config_.cell.vdd;

    // Every quiesced rail is known analytically — wordlines parked,
    // bitlines precharged through closed switches, virtual grounds at 0 —
    // so Newton can start from the imposed data directly instead of paying
    // a cold settling solve just to derive the same periphery.
    la::Vector guess(ckt_.num_unknowns(), 0.0);
    guess[vdd_node_ - 1] = vdd;
    for (const ColumnRails& col : col_handles_) {
        guess[col.bl - 1] = vdd;
        guess[col.blb - 1] = vdd;
        guess[col.bl_drv - 1] = vdd;
        guess[col.blb_drv - 1] = vdd;
        guess[col.vss - 1] = 0.0;
    }
    for (const RowHandles& row : row_handles_)
        guess[row.wl_node - 1] = row.wl->waveform().initial();
    const auto impose = [&](la::Vector& g) {
        for (std::size_t r = 0; r < config_.rows; ++r) {
            for (std::size_t c = 0; c < config_.cols; ++c) {
                const CellNodes& cell = at(r, c);
                g[cell.q - 1] = data[r][c] ? vdd : 0.0;
                g[cell.qb - 1] = data[r][c] ? 0.0 : vdd;
            }
        }
    };
    impose(guess);
    spice::SolverOptions crawl = opts;
    crawl.dv_limit = 0.05;
    spice::DcResult settled = spice::solve_dc(ckt_, opts, 0.0, &guess);
    if (!settled.converged)
        settled = spice::solve_dc(ckt_, crawl, 0.0, &guess);
    if (!settled.converged) {
        // Analytic seeding failed (an exotic cell/assist combination may
        // quiesce away from the ideal rails): fall back to the historical
        // path — settle cold, impose the data on the settled state, re-solve.
        const spice::DcResult cold = spice::solve_dc(ckt_, opts);
        la::Vector from_cold =
            cold.converged ? cold.x : la::Vector(ckt_.num_unknowns(), 0.0);
        impose(from_cold);
        settled = spice::solve_dc(ckt_, opts, 0.0, &from_cold);
        if (!settled.converged)
            settled = spice::solve_dc(ckt_, crawl, 0.0, &from_cold);
        if (!settled.converged)
            return false;
    }
    state_ = std::move(settled.x);
    initialized_ = true;
    for (std::size_t r = 0; r < config_.rows; ++r)
        for (std::size_t c = 0; c < config_.cols; ++c)
            if (stored(r, c) != data[r][c])
                return false;
    return true;
}

bool SramArray::stored(std::size_t row, std::size_t col) const {
    TFET_EXPECTS(initialized_);
    const CellNodes& cell = at(row, col);
    return spice::branch_voltage(state_, cell.q, cell.qb) > 0.0;
}

double SramArray::separation(std::size_t row, std::size_t col) const {
    TFET_EXPECTS(initialized_);
    const CellNodes& cell = at(row, col);
    return std::fabs(spice::branch_voltage(state_, cell.q, cell.qb));
}

SolverInfo SramArray::solver_info() {
    return spice::probe_solver_info(ckt_, sim_);
}

bool SramArray::run(double t_end, std::string* message) {
    const spice::ScopedContext bind(sim_);
    const spice::SolverOptions opts;
    const spice::TransientResult tr =
        spice::solve_transient(ckt_, opts, t_end, nullptr, &state_);
    if (!tr.completed) {
        if (message != nullptr)
            *message = tr.message;
        return false;
    }
    state_ = tr.state(tr.size() - 1);
    return true;
}

OpResult SramArray::write(std::size_t row, std::size_t col, bool value) {
    TFET_EXPECTS(initialized_);
    TFET_EXPECTS(row < config_.rows && col < config_.cols);
    OpResult res;
    const AccessPrograms ops = write_programs(config_, value);
    program(row, col, ops);
    const double t_end = ops.access.window.t_end;

    if (!run(t_end, &res.message))
        return res;
    res.duration = t_end;
    res.ok = stored(row, col) == value;
    if (!res.ok)
        res.message = "write did not flip the cell";
    return res;
}

ReadResult SramArray::read(std::size_t row, std::size_t col) {
    TFET_EXPECTS(initialized_);
    TFET_EXPECTS(row < config_.rows && col < config_.cols);
    ReadResult res;
    const AccessPrograms ops = read_programs(config_);
    program(row, col, ops);

    if (!run(ops.access.window.t_end, &res.message))
        return res;

    // Sense the differential the floated bitlines settled to at t_end.
    const ColumnRails& target = col_handles_[col];
    const double dbl = spice::branch_voltage(state_, target.bl, target.blb);
    res.differential = dbl;
    res.value = dbl > 0.0;
    res.ok = std::fabs(dbl) >= config_.sense_margin;
    if (!res.ok)
        res.message = "differential below sense margin";
    return res;
}

} // namespace tfetsram::array
