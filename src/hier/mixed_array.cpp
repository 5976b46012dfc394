#include "hier/mixed_array.hpp"

#include <algorithm>
#include <cmath>

#include "spice/context.hpp"
#include "spice/dc.hpp"
#include "spice/solution.hpp"
#include "spice/transient.hpp"
#include "util/contracts.hpp"

namespace tfetsram::hier {

namespace {

// Reject degenerate configurations and non-6T cells before any member
// (the Partitioner in particular) consumes them, so the caller sees the
// same kInvalidConfig or contract violation as from the flat driver
// rather than a failure inside an internal component.
const array::ArrayConfig& validated(const array::ArrayConfig& config) {
    array::validate_config(config);
    sram::expect_6t(config.cell);
    return config;
}

} // namespace

MixedArray::MixedArray(const array::ArrayConfig& config, HierConfig hier,
                       const spice::SimContext* sim)
    : config_(validated(config)), hier_(hier), sim_(sim),
      partitioner_(config.rows, config.cols, hier.partition),
      model_(config.cell, sim) {
    model_.set_extraction_dv(hier_.extraction_dv);
    store_.resize(config_.rows * config_.cols);
}

const LatchedState& MixedArray::at(std::size_t row, std::size_t col) const {
    TFET_EXPECTS(row < config_.rows && col < config_.cols);
    return store_[row * config_.cols + col];
}

bool MixedArray::initialize(const std::vector<std::vector<bool>>& data) {
    TFET_EXPECTS(data.size() == config_.rows);
    for (const auto& row : data)
        TFET_EXPECTS(row.size() == config_.cols);

    const double vdd = config_.cell.vdd;
    for (std::size_t r = 0; r < config_.rows; ++r) {
        for (std::size_t c = 0; c < config_.cols; ++c) {
            // The latched hold point at quiescent column levels; one
            // extraction per stored polarity serves the whole grid.
            const BitlineLoad& l = model_.load(data[r][c], 0.0, vdd, vdd);
            if (!l.valid)
                return false;
            LatchedState& s = store_[r * config_.cols + c];
            s.value = data[r][c];
            s.v_q = l.v_q;
            s.v_qb = l.v_qb;
        }
    }
    initialized_ = true;
    return true;
}

bool MixedArray::stored(std::size_t row, std::size_t col) const {
    TFET_EXPECTS(initialized_);
    return at(row, col).value;
}

double MixedArray::separation(std::size_t row, std::size_t col) const {
    TFET_EXPECTS(initialized_);
    const LatchedState& s = at(row, col);
    return std::fabs(s.v_q - s.v_qb);
}

const LatchedState& MixedArray::latched(std::size_t row,
                                        std::size_t col) const {
    TFET_EXPECTS(initialized_);
    return at(row, col);
}

spice::SolverInfo MixedArray::partition_solver_info() {
    if (last_partition_ == nullptr)
        return {};
    return spice::probe_solver_info(last_partition_->ckt, sim_);
}

std::size_t MixedArray::partition_transistors() const {
    return last_partition_ == nullptr
               ? 0
               : last_partition_->ckt.transistors().size();
}

std::size_t MixedArray::partition_unknowns() const {
    return last_partition_ == nullptr ? 0
                                      : last_partition_->ckt.num_unknowns();
}

std::unique_ptr<MixedArray::Partition>
MixedArray::build_partition(const PartitionPlan& plan) {
    auto part = std::make_unique<Partition>();
    spice::Circuit& ckt = part->ckt;
    const sram::OperationProgram hold =
        sram::OperationProgram::hold(config_.cell);

    part->vdd_node = ckt.add_node("vdd");
    ckt.add_vsource("Vvdd", part->vdd_node, spice::kGround, hold.vdd);

    // Every column keeps its full rail infrastructure — bitline pair with
    // the whole column's wire capacitance, precharge switches, segmented
    // virtual ground — because the operation waveforms act on columns, not
    // cells. Only the cells themselves are partitioned.
    part->cols.resize(config_.cols);
    for (std::size_t c = 0; c < config_.cols; ++c) {
        ColHandles& col = part->cols[c];
        array::add_column_rails(ckt, config_, c, hold, col);
        // The latched population's lumped leakage; programmed per
        // operation by program_loads().
        const std::string id = std::to_string(c);
        col.load_bl = &ckt.add_linearized_load("Lbl" + id, col.bl);
        col.load_blb = &ckt.add_linearized_load("Lblb" + id, col.blb);
    }

    // Wordlines only for rows that own at least one promoted cell.
    part->wl.assign(config_.rows, nullptr);
    std::vector<spice::NodeId> wl_node(config_.rows, spice::kGround);
    for (const PromotedCell& p : plan.promoted) {
        const std::size_t r = p.ref.row;
        if (part->wl[r] != nullptr)
            continue;
        const std::string rid = std::to_string(r);
        wl_node[r] = ckt.add_node("wl" + rid);
        part->wl[r] = &ckt.add_vsource("Vwl" + rid, wl_node[r],
                                       spice::kGround, hold.wl);
    }

    for (const PromotedCell& p : plan.promoted) {
        ActiveCell ac;
        ac.ref = p.ref;
        const std::string cid =
            std::to_string(p.ref.row) + "_" + std::to_string(p.ref.col);
        ac.q = ckt.add_node("q" + cid);
        ac.qb = ckt.add_node("qb" + cid);
        const ColHandles& col = part->cols[p.ref.col];
        const sram::CellPorts ports{ac.q,    ac.qb,
                                    col.bl,  col.blb,
                                    wl_node[p.ref.row], part->vdd_node,
                                    col.vss};
        sram::build_6t_devices(ckt, config_.cell, ports, "x" + cid + "_");
        part->cells.push_back(ac);
    }
    ckt.prepare();
    return part;
}

MixedArray::ColumnBias
MixedArray::column_bias(const array::AccessPrograms& ops, bool target,
                        bool is_write, bool value) const {
    const double vdd = config_.cell.vdd;
    if (!target)
        return {ops.unselected.levels.vss, vdd, vdd};
    const sram::AssistLevels& lv = ops.access.levels;
    if (!is_write)
        return {lv.vss, lv.bl_high, lv.bl_high};
    return {lv.vss, value ? lv.bl_high : lv.bl_low,
            value ? lv.bl_low : lv.bl_high};
}

bool MixedArray::program_loads(Partition& part, const PartitionPlan& plan,
                               const array::AccessPrograms& ops, bool value,
                               std::string* message) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
        ColHandles& col = part.cols[c];
        std::size_t n0 = 0;
        std::size_t n1 = 0;
        for (std::size_t r = 0; r < config_.rows; ++r) {
            if (plan.contains(r, c))
                continue;
            if (store_[r * config_.cols + c].value)
                ++n1;
            else
                ++n0;
        }
        col.latched_cells = n0 + n1;
        const ColumnBias b =
            column_bias(ops, c == plan.access_col, plan.is_write, value);
        col.v0_bl = b.v_bl;
        col.v0_blb = b.v_blb;
        if (col.latched_cells == 0) {
            col.load_bl->set_load(0.0, 0.0, 0.0, 0.0);
            col.load_blb->set_load(0.0, 0.0, 0.0, 0.0);
            continue;
        }
        double i_bl = 0.0;
        double g_bl = 0.0;
        double i_blb = 0.0;
        double g_blb = 0.0;
        const std::pair<std::size_t, bool> populations[] = {{n0, false},
                                                            {n1, true}};
        for (const auto& [n, state] : populations) {
            if (n == 0)
                continue;
            const BitlineLoad& l = model_.load(state, b.vss, b.v_bl, b.v_blb);
            if (!l.valid) {
                if (message != nullptr)
                    *message = "latched-cell extraction failed to converge "
                               "(column " +
                               std::to_string(c) + ", state " +
                               (state ? std::string("1") : std::string("0")) +
                               ")";
                return false;
            }
            const double scale = static_cast<double>(n);
            i_bl += scale * l.i_bl;
            g_bl += scale * l.g_bl;
            i_blb += scale * l.i_blb;
            g_blb += scale * l.g_blb;
        }
        col.load_bl->set_load(1.0, i_bl, g_bl, b.v_bl);
        col.load_blb->set_load(1.0, i_blb, g_blb, b.v_blb);
    }
    return true;
}

void MixedArray::program(Partition& part, const PartitionPlan& plan,
                         const array::AccessPrograms& ops) const {
    part.wl[plan.access_row]->set_waveform(ops.access.wl);
    for (std::size_t c = 0; c < config_.cols; ++c)
        part.cols[c].v_vss->set_waveform(c == plan.access_col
                                             ? ops.access.vss
                                             : ops.unselected.vss);
    ColHandles& target = part.cols[plan.access_col];
    target.v_bl->set_waveform(ops.access.bl);
    target.v_blb->set_waveform(ops.access.blb);
    target.sw_bl->set_control(ops.access.sw_bl);
    target.sw_blb->set_control(ops.access.sw_blb);
}

bool MixedArray::solve_partition_dc(const spice::SimContext& ctx,
                                    Partition& part, std::string* message) {
    const spice::SolverOptions opts;
    const spice::DcResult cold = spice::solve_dc(part.ckt, ctx, opts);
    la::Vector guess = cold.converged
                           ? cold.x
                           : la::Vector(part.ckt.num_unknowns(), 0.0);
    for (const ActiveCell& ac : part.cells) {
        const LatchedState& s =
            store_[ac.ref.row * config_.cols + ac.ref.col];
        guess[ac.q - 1] = s.v_q;
        guess[ac.qb - 1] = s.v_qb;
    }
    spice::DcResult settled =
        spice::solve_dc(part.ckt, ctx, opts, 0.0, &guess);
    if (!settled.converged) {
        spice::SolverOptions crawl = opts;
        crawl.dv_limit = spice::kCrawlDvLimit;
        settled = spice::solve_dc(part.ckt, ctx, crawl, 0.0, &guess);
        if (!settled.converged) {
            if (message != nullptr)
                *message = "active-partition DC init failed to converge";
            return false;
        }
    }
    part.state = std::move(settled.x);
    return true;
}

MixedArray::AttemptOutcome
MixedArray::run_attempt(const spice::SimContext& ctx, Partition& part,
                        double t_end, const std::vector<bool>& monitor_col) {
    AttemptOutcome out;
    const double gb = partitioner_.policy().guard_band;
    const double vdd = config_.cell.vdd;
    spice::StopCondition stop;
    if (std::any_of(monitor_col.begin(), monitor_col.end(),
                    [](bool m) { return m; })) {
        stop = [&](double t, const la::Vector& x) {
            for (std::size_t c = 0; c < part.cols.size(); ++c) {
                const ColHandles& col = part.cols[c];
                if (!monitor_col[c] || col.latched_cells == 0)
                    continue;
                // Allowed band: the envelope spanned by the quiescent
                // level (bitlines rest at VDD) and the extraction bias,
                // padded by the guard band. The rail legitimately ramps
                // between those two levels during the operation; escaping
                // the envelope means the latched linearization is being
                // evaluated far from its extraction point.
                const struct {
                    spice::NodeId node;
                    double v0;
                } rails[2] = {{col.bl, col.v0_bl}, {col.blb, col.v0_blb}};
                for (const auto& rail : rails) {
                    const double lo = std::min(vdd, rail.v0) - gb;
                    const double hi = std::max(vdd, rail.v0) + gb;
                    const double v = spice::node_voltage(x, rail.node);
                    if (v < lo || v > hi) {
                        out.guard_tripped = true;
                        out.guard_col = c;
                        out.guard_time = t;
                        return true;
                    }
                }
            }
            return false;
        };
    }
    const spice::TransientResult tr = spice::solve_transient(
        part.ckt, ctx, spice::SolverOptions{}, t_end, stop, &part.state);
    if (!tr.completed) {
        out.message = tr.message;
        out.guard_tripped = false;
        return out;
    }
    if (tr.stopped_early)
        return out; // guard fields were set by the stop condition
    out.completed = true;
    part.state = tr.state(tr.size() - 1);
    return out;
}

void MixedArray::drain_events(const spice::SimContext& ctx) {
    spice::SolverStats& ss = ctx.stats();
    while (!queue_.empty()) {
        const Event ev = queue_.pop();
        switch (ev.kind) {
        case EventKind::kPromote:
            ++stats_.promotions;
            ++ss.hier_promotions;
            break;
        case EventKind::kDemote:
            ++stats_.demotions;
            ++ss.hier_demotions;
            break;
        case EventKind::kRelinearize:
            ++stats_.relinearizations;
            ++ss.hier_relinearizations;
            break;
        case EventKind::kGuardTrip:
            ++stats_.guard_retries;
            ++ss.hier_guard_retries;
            break;
        }
        trace_.push_back(ev);
    }
}

void MixedArray::relatch(const Partition& part) {
    for (const ActiveCell& ac : part.cells) {
        LatchedState& s = store_[ac.ref.row * config_.cols + ac.ref.col];
        s.v_q = spice::node_voltage(part.state, ac.q);
        s.v_qb = spice::node_voltage(part.state, ac.qb);
        s.value = s.v_q > s.v_qb;
    }
}

MixedArray::ExecOutcome MixedArray::execute(PartitionPlan& plan, bool value) {
    // Every solve and counter of the operation goes to one context.
    const spice::SimContext& ctx = spice::context_or_ambient(sim_);
    ExecOutcome er;
    trace_.clear();
    queue_.clear();
    std::vector<bool> monitor(config_.cols, true);
    const array::AccessPrograms ops = plan.is_write
                                          ? array::write_programs(config_, value)
                                          : array::read_programs(config_);
    const std::size_t max_attempts =
        partitioner_.policy().max_guard_retries + 1;

    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        // Cancellation checkpoint per promote/retry attempt: an expired or
        // cancelled context abandons the operation gracefully (ok=false,
        // message says why) instead of burning further guard retries.
        {
            const spice::SolveErrorCode status = ctx.poll_cancellation();
            if (status != spice::SolveErrorCode::kNone) {
                ++ctx.stats().cancelled_solves;
                er.message =
                    std::string("mixed-array operation abandoned: ") +
                    spice::to_string(status);
                drain_events(ctx);
                return er;
            }
        }
        std::unique_ptr<Partition> part = build_partition(plan);
        const std::size_t unknowns = part->ckt.num_unknowns();
        stats_.last_active_cells = part->cells.size();
        stats_.last_latched_cells =
            config_.rows * config_.cols - part->cells.size();
        stats_.last_active_unknowns = unknowns;
        stats_.max_active_unknowns =
            std::max(stats_.max_active_unknowns, unknowns);
        ctx.stats().hier_active_unknowns = unknowns;

        if (!program_loads(*part, plan, ops, value, &er.message))
            return er;
        program(*part, plan, ops);
        const double t_end = ops.access.window.t_end;

        // This attempt's level transitions, in timeline order: lumped
        // loads stamp at t=0 (as do guard-promoted sentinels, present
        // from the start of a retry), excursion sentinels activate with
        // the column rails at t_settle, the accessed row promotes on its
        // wordline edge, and everything demotes after the post-settle.
        for (std::size_t c = 0; c < config_.cols; ++c)
            if (part->cols[c].latched_cells > 0)
                queue_.push({0.0, 0, EventKind::kRelinearize, 0, c,
                             PromoteReason::kWordlineEdge});
        for (const PromotedCell& p : plan.promoted) {
            double t = 0.0;
            if (p.reason == PromoteReason::kWordlineEdge)
                t = ops.access.window.wl_start;
            else if (p.reason == PromoteReason::kBitlineExcursion)
                t = ops.access.assist_on;
            queue_.push({t, 0, EventKind::kPromote, p.ref.row, p.ref.col,
                         p.reason});
        }

        if (!solve_partition_dc(ctx, *part, &er.message)) {
            drain_events(ctx);
            return er;
        }

        // The final permitted attempt runs unguarded: its result stands.
        const bool guarded = attempt + 1 < max_attempts;
        std::vector<bool> attempt_monitor =
            guarded ? monitor : std::vector<bool>(config_.cols, false);
        const AttemptOutcome out =
            run_attempt(ctx, *part, t_end, attempt_monitor);

        if (!out.completed && !out.guard_tripped) {
            er.message = out.message;
            drain_events(ctx);
            return er;
        }
        if (out.guard_tripped) {
            for (const PromotedCell& p : plan.promoted)
                queue_.push({out.guard_time, 0, EventKind::kDemote,
                             p.ref.row, p.ref.col, p.reason});
            queue_.push({out.guard_time, 0, EventKind::kGuardTrip, 0,
                         out.guard_col, PromoteReason::kGuardBand});
            drain_events(ctx);
            // More sentinels on the offending column; when the column is
            // already fully promoted, stop guarding it instead.
            if (partitioner_.refine(plan, out.guard_col) == 0)
                monitor[out.guard_col] = false;
            continue;
        }

        for (const PromotedCell& p : plan.promoted)
            queue_.push({t_end, 0, EventKind::kDemote, p.ref.row, p.ref.col,
                         p.reason});
        drain_events(ctx);
        relatch(*part);
        last_partition_ = std::move(part);
        ++stats_.operations;
        er.completed = true;
        er.t_end = t_end;
        return er;
    }
    TFET_ASSERT(false); // final attempt is unguarded and always returns
    return er;
}

array::OpResult MixedArray::write(std::size_t row, std::size_t col,
                                  bool value) {
    TFET_EXPECTS(initialized_);
    TFET_EXPECTS(row < config_.rows && col < config_.cols);
    array::OpResult res;
    PartitionPlan plan = partitioner_.plan_write(row, col);
    const ExecOutcome er = execute(plan, value);
    if (!er.completed) {
        res.message = er.message;
        return res;
    }
    res.duration = er.t_end;
    res.ok = stored(row, col) == value;
    if (!res.ok)
        res.message = "write did not flip the cell";
    return res;
}

array::ReadResult MixedArray::read(std::size_t row, std::size_t col) {
    TFET_EXPECTS(initialized_);
    TFET_EXPECTS(row < config_.rows && col < config_.cols);
    array::ReadResult res;
    PartitionPlan plan = partitioner_.plan_read(row, col);
    const ExecOutcome er = execute(plan, /*value=*/false);
    if (!er.completed) {
        res.message = er.message;
        return res;
    }
    const ColHandles& target = last_partition_->cols[col];
    const double dbl = spice::branch_voltage(last_partition_->state,
                                             target.bl, target.blb);
    res.differential = dbl;
    res.value = dbl > 0.0;
    res.ok = std::fabs(dbl) >= config_.sense_margin;
    if (!res.ok)
        res.message = "differential below sense margin";
    return res;
}

} // namespace tfetsram::hier
